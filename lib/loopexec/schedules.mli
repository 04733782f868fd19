(** Execution schedules for a loop nest.

    A schedule fixes the order in which the iteration points are visited.
    [Untiled] is plain lexicographic order (innermost loop fastest) — the
    naive nest as written. [Tiled b] visits tiles of dimensions [b] in
    lexicographic order over the tile grid and points inside each tile
    lexicographically; edge tiles are clipped to the loop bounds.
    [Nested [b1; b2; ...]] (innermost tile first, each level elementwise
    no larger than the next) blocks recursively — the schedule matching a
    multi-level memory hierarchy ({!module:Hierarchy}): the level-[k]
    tile is sized for the level-[k] cache. *)

type t =
  | Untiled
  | Permuted of int array
      (** untiled, but with the loops interchanged: entry [k] is the loop
          index at nesting depth [k] (outermost first) — the classic
          loop-interchange baseline *)
  | Tiled of int array
  | Nested of int array list

val classic_tile : ?clamp:bool -> Spec.t -> m:int -> int array
(** The "large bounds" cube tiling of Section 3 discussion: every tile
    dimension equals [floor((m / n_arrays)^(1/a_max))] where [a_max] is
    the largest array arity — the shape classical analyses prescribe
    ([sqrt(M/3)] per side for matmul). With [clamp] (default [true])
    dimensions are clipped to the loop bounds, which is the standard fix
    that makes the tile legal but wastes cache capacity when bounds are
    small; with [~clamp:false] the result can be infeasible, exactly the
    failure the paper's construction removes. *)

val validate : Spec.t -> t -> (unit, string) result
(** Check a schedule is executable for this spec: tile arities match,
    every tile dimension lies in [[1, L_i]], and nested levels are
    elementwise monotone (inner <= outer). *)

val iterate_rows : Spec.t -> t -> (int array -> int -> int -> int -> unit) -> unit
(** [iterate_rows spec sched (fun point inner lo hi -> ...)] visits every
    innermost row in schedule order: the points [point] with
    [point.(inner)] running over [[lo, hi)], all other coordinates fixed.
    [inner] is the innermost loop that still varies: in nesting order
    (the loop indices, or a [Permuted] order), the innermost loop with
    more than one value in the current block — the whole iteration space
    for [Untiled] and [Permuted], the innermost tile block for [Tiled]
    and [Nested] — or the last loop when none has. The loops nested
    inside it have a single value there and stay fixed at it, so the
    visit order is the lexicographic one, and a tile of inner extent 1
    (e.g. [[152; 1]]) still has rows of [152] points. A row spans the
    block along [inner]; rows are never empty. [point.(inner) = lo] on
    entry; the callback may overwrite [point.(inner)] but no other
    coordinate. The array is reused across rows. This is the executor's
    traversal: it turns each row into per-array strided address runs
    instead of one callback per point.
    @raise Invalid_argument if {!validate} fails. *)

val iterate : Spec.t -> t -> (int array -> unit) -> unit
(** Visit every iteration point exactly once in schedule order: each row
    of {!iterate_rows}, point by point. The point array passed to the
    callback is reused; copy it if you keep it.
    @raise Invalid_argument if {!validate} fails. *)

val description : Spec.t -> t -> string

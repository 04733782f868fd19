(** Compiled per-shape tiling plans (Section 7 made operational).

    Section 7 of the paper proves the optimal tile exponent
    [f(beta) = max sum lambda] of LP (5.1) is piecewise-linear in
    [beta = log_M L]: by LP duality it equals the minimum of
    [sum_j s_j + sum_i zeta_i beta_i] over the vertices of the dual
    polyhedron [D = { (zeta, s) >= 0 : zeta_i + sum_{j : i in supp j} s_j
    >= 1 }] — and [D] depends only on the kernel's {e shape} (the
    multiset of array supports), not on the bounds or the cache size.
    This module is the one place that enumerates those vertices. It
    compiles them, once per shape, into a {e plan}: a lookup structure
    that answers any [(L_1..L_d, M)] request with pure rational
    arithmetic — no simplex solves — and returns exactly the answer the
    LP pipeline produces. {!Closed_form.compute} reads the same plan's
    level-0 vertices ({!pieces}) and prunes them to print the pieces and
    critical regions.

    {2 Canonical answers}

    LP (5.1) often has a face of optima, and which vertex the simplex
    returns depends on pivot order — useless as a cache contract. Both
    the plan and the LP fallback therefore return the {e
    lexicographically maximal} optimal solution: among all optimal
    [lambda], the one maximizing [lambda_0], then [lambda_1], and so on.
    This point is unique, so the two paths agree bit-for-bit.

    The plan computes it greedily: besides the level-0 vertex set of [D]
    (which prices the optimal value), it stores the vertex sets of the
    dual polyhedra of every loop {e suffix} [{k..d-1}]. Fixing
    [lambda_k = t] leaves a suffix problem with per-array capacities
    reduced by [t] on arrays containing loop [k]; its value is again a
    vertex minimum, so the largest [t] preserving global optimality is
    the smallest root of [d] one-dimensional piecewise-linear equations
    — [O(d * vertices)] rational operations per query.

    Because the stored vertex sets are {e unpruned} (no box
    restriction), a plan is exact for every [beta >= 0] — including
    bounds past the [M^4] box {!Closed_form} prints regions for. There
    is no out-of-box fallback to take. *)

type t
(** A compiled plan for one kernel shape. Immutable. *)

val shape_key : Spec.t -> string
(** Canonical shape key [d=N;A=]{!render_rows}: {!Memo.key_of_spec}
    without the bounds prefix. Two specs with equal keys have identical
    support structure and share one plan (loop/array names and bounds do
    not appear). *)

(** {1 Key rows}

    Every engine key embeds the row format this module owns: one
    [mode:i,j,...] row per array ([r], [w] or [u], absolute 0-based loop
    indices), sorted and joined by [|]. *)

val render_rows : Spec.t -> string

val max_loops : int
(** 630: no shape with more loops fits the compile budget, so key
    parsers refuse one before allocating anything sized by it. *)

val spec_of_rows : bounds:int array -> string -> (Spec.t, string) result
(** The spec (generated names, [d = length bounds]) whose {!render_rows}
    is exactly this text, else [Error]: a bad mode, an index [>= d], a
    repeated or out-of-order index, an unused loop, [d] outside
    [[1, max_loops]] or more than 200,000 rows. *)

val spec_of_shape_key : string -> (Spec.t, string) result
(** Inverse of {!shape_key} (all bounds 1), as strict as {!spec_of_rows}. *)

val compile : Spec.t -> t
(** Enumerate the [d+1] suffix dual-polyhedron vertex sets for this
    spec's shape. Cost is one small exact linear solve per candidate
    support/loop subset pair; plans for the paper's kernels compile in
    milliseconds.
    @raise Invalid_argument (message containing ["shape too large"],
    classified as [Engine_error.Shape_too_large]) when the candidate
    count exceeds an enumeration budget, or the vertex tables those
    candidates could fill (candidates times [n + d]) exceed 64 times it.
    This is the only enumeration budget: {!Closed_form.compute} inherits
    the refusal. *)

val key : t -> string
(** The {!shape_key} this plan was compiled for. *)

val pieces : t -> (Rat.t * Rat.t array) list
(** The level-0 vertices as affine functions of [beta]:
    [(sum_j s_j, zeta)], one per stored vertex, in stored order
    (duplicates possible — distinct vertices may price identically).
    {!Closed_form.compute} sorts, dedupes and box-prunes exactly this
    list. *)

val answer : t -> beta:Rat.t array -> Rat.t array * Rat.t
(** [answer t ~beta] is [(lambda, value)]: the lexicographically maximal
    optimal solution of LP (5.1) and its objective [sum lambda_i],
    exact, for any [beta >= 0] (in or out of the closed form's box).
    Matches {!Tiling.solve_lp_lexmax} bit-for-bit.
    @raise Invalid_argument on arity mismatch or negative [beta]. *)

val value : t -> beta:Rat.t array -> Rat.t
(** The optimal exponent alone: one vertex-minimum, [O(pieces * (d+n))]
    rational operations. *)

val dual : t -> Spec.t -> beta:Rat.t array -> Rat.t array
(** Optimal multipliers for LP (5.1) in [spec]'s constraint order ([n]
    array rows then [d] bound rows), read off the value-minimizing
    level-0 vertex. A valid optimal dual, though not necessarily the one
    the simplex would return ({!Report.to_json} does not render duals,
    so this difference is invisible on the wire).
    @raise Invalid_argument if [spec]'s shape key differs from {!key}. *)

(** {1 Serialization}

    Plans serialize to versioned JSON ([{"v":1,...}] at the container
    level; see [tilings compile]) so serve replicas can boot warm via
    [--plans FILE]. Rationals travel as exact strings ([Rat.to_string]),
    never floats. [to_json] output is canonical: vertices are sorted, so
    equal plans render byte-identically. *)

val to_json : t -> string
(** One JSON object [{"shape":...,"d":...,"supports":...,"levels":...}]
    (no trailing newline). *)

val of_json : Jsonlite.t -> (t, string) result
(** [compile] of the shape named by the object's ["shape"] key
    ({!spec_of_shape_key}). A plan is a function of its shape alone, so
    the stored vertex tables are a readable record, never input: an
    edited or truncated table cannot change an answer. [Error] for a
    missing or malformed key or a shape [compile] refuses. *)

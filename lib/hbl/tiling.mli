(** Optimal rectangular tilings (Section 5).

    Theorem 3: the rectangle whose per-dimension log-sizes solve LP (5.1)
    matches the Theorem-2 upper bound on tile size, so tiling the
    iteration space with it attains the communication lower bound (up to
    the usual constant factors). This module solves the LP, converts the
    continuous solution into integer tile dimensions, and provides the
    footprint/communication accounting used by the benchmarks. *)

type lp_solution = {
  lambda : Rat.t array;  (** optimal [log_M] block sizes, one per loop *)
  value : Rat.t;  (** [sum lambda_i = k_hat] *)
  dual : Rat.t array;  (** multipliers: [n] array rows then [d] bound rows *)
}

val solve_lp : Spec.t -> beta:Rat.t array -> lp_solution
(** Whichever optimal vertex the simplex pivots to — fine when only the
    objective matters. *)

val lp_value : Spec.t -> beta:Rat.t array -> Rat.t
(** The value [f(beta)] of LP (5.1) alone, for any [beta >= 0]. Being
    unique, it is served by any certified basis: a floating-point
    pre-screen ({!Simplex_float.solve}) proposes one, {!Simplex.certify}
    confirms it exactly, and only if that fails does the exact solver run. *)

val solve_lp_lexmax : Spec.t -> beta:Rat.t array -> lp_solution
(** The {e lexicographically maximal} optimal solution: among all optima
    of (5.1), the one maximizing [lambda_0], then [lambda_1], ... —
    unique, hence safe to compare bit-for-bit across solver paths. This
    is the engine's canonical answer ({!Tiling_plan} reproduces it
    without any simplex solves). Costs [d + 1] LP solves; [dual] is the
    multiplier vector of the initial value-finding solve. The [d] per-[k]
    sub-solves consume only their optimal value, so they are certified
    like {!lp_value}; the initial solve runs exactly because dual
    multipliers at degenerate optima are not unique. *)

val of_lambda : Spec.t -> m:int -> Rat.t array -> int array
(** Integer tile from a (feasible) continuous LP solution: round
    [b_i = M^(lambda_i)] down, clamp to [[1, L_i]], then repair any
    per-array footprint above [m] and greedily grow every dimension to a
    maximal feasible rectangle. The result always satisfies
    {!is_feasible}. *)

val optimal : Spec.t -> m:int -> int array
(** [of_lambda] applied to the LP solution for
    [beta = beta_of_bounds ~m bounds]. *)

val optimal_shared : Spec.t -> m:int -> int array
(** Like {!optimal}, but for a single cache of [m] words shared by all
    arrays: the {e total} footprint of the result is at most [m]. The
    paper's model charges each array up to [M] words separately;
    executing on one physical cache needs this variant. Internally an LP
    seed (the per-array budget scaled down iteratively until the grown
    tile's total footprint fits) sets the incumbent for a
    branch-and-bound sweep over power-of-two tile grids, pruned by a
    footprint floor and by an admissible traffic lower bound; a local
    refinement pass follows. The sweep carries per-depth state down the
    tree (each array's prefix footprint, its running product of
    non-support tile counts and its current lower-bound words), so one
    ladder value costs O(n) for [n] arrays, and each leaf is judged from
    the same state. Tiles and the [tiling.search.*] counters it emits
    (nodes, leaves, pruned_bound, pruned_footprint) are those of the
    earlier search that recomputed each bound from scratch; the test
    oracle [test/tiling_reference.ml] keeps that search. *)

val nested : Spec.t -> ms:int array -> int array list
(** Tiles for a multi-level memory hierarchy with capacities [ms]
    (strictly increasing, fastest first): one {!optimal_shared} tile per
    level, forced elementwise monotone from inner to outer. The result is
    innermost-first, ready for {!Schedules.Nested}.
    @raise Invalid_argument on an empty or non-increasing ladder. *)

val volume : int array -> int

val footprint : Spec.t -> int array -> int -> int
(** [footprint spec b j] — words of array [j] touched by one full tile:
    [prod_{i in support j} b_i]. *)

val max_footprint : Spec.t -> int array -> int
val total_footprint : Spec.t -> int array -> int

val is_feasible : Spec.t -> m:int -> int array -> bool
(** [1 <= b_i <= L_i] for all loops and [footprint j <= m] for all
    arrays — the paper's per-array memory model. *)

val num_tiles : Spec.t -> int array -> int
(** [prod_i ceil(L_i / b_i)]. *)

type traffic = {
  reads : float;  (** words loaded: each array element once per tile touching it *)
  writes : float;  (** words stored for [Write]/[Update] arrays, same accounting *)
}

val analytic_traffic : Spec.t -> int array -> traffic
(** Exact communication of the tiled schedule under the "load tile
    working set, compute, write back" discipline, counting clipped edge
    tiles exactly. For array [j] this is
    [array_words j * prod_{i not in support j} num_tiles_i]. *)

val analytic_traffic_retained : Spec.t -> int array -> traffic
(** Like {!analytic_traffic}, but consecutive tiles (in the lexicographic
    tile order {!Schedules.Tiled} uses) that touch the {e same} block of
    an array are charged only once — the block stays resident, which is
    what an LRU cache that fits the whole working set actually does.
    Computed in closed form from the carry structure of the tile odometer
    (array [j]'s block changes exactly when the carry reaches its
    innermost multi-tile support dimension); this is the objective
    {!optimal_shared} minimizes. Falls back to {!analytic_traffic} when
    the tile grid exceeds [2*10^6] tiles. *)

val pp : Spec.t -> Format.formatter -> int array -> unit

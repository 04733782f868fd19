(** Builders for the paper's linear programs.

    For a projective loop nest with support matrix [Phi] (one 0/1 row per
    array, one column per loop index), the three LPs of the paper are:

    - {b HBL LP (3.2)}: [min 1.s] subject to [Phi^T s >= 1], [s >= 0].
      Its optimum [s_HBL] yields the classical large-bounds tile-size
      bound [M^(sum s_i)].
    - {b Bounded tiling LP (5.1)}: [max 1.lambda] subject to
      [Phi lambda <= 1], [lambda_i <= beta_i], [lambda >= 0], where
      [beta_i = log_M L_i]. Its optimum is the log (base M) of the optimal
      rectangular tile cardinality, for {e arbitrary} loop bounds.
    - {b Dual tiling LP (5.5)/(5.6)}: [min 1.s + beta.zeta] subject to
      [Phi^T s + zeta >= 1], [s, zeta >= 0] — the LP Theorem 3 relates to
      the [min_Q] expression of Theorem 2.

    All variable orders follow the paper: [s] indexed by arrays, [lambda]
    and [zeta] indexed by loops. *)

val hbl : Spec.t -> Lp.t
(** LP (3.2). Variables: [s_j], one per array. *)

val reduced_hbl : Spec.t -> removed:int list -> Lp.t
(** LP (3.2) with the constraint rows of the loop indices in [removed]
    deleted — the [Q]-reduced LP of Section 4 (constraints (4.7)/(5.3)).
    @raise Invalid_argument if an index is out of range. *)

val tiling : Spec.t -> beta:Rat.t array -> Lp.t
(** LP (5.1). Variables: [lambda_i], one per loop.
    @raise Invalid_argument if [beta] has the wrong arity or a negative
    entry. *)

val dual_tiling : Spec.t -> beta:Rat.t array -> Lp.t
(** LP (5.5)/(5.6), built explicitly (not via the simplex solver's dual
    values) so tests can confirm Theorem 3's duality argument end to end.
    Variables: [zeta_1..zeta_d] then [s_1..s_n], matching (5.6). *)

val theorem2_q : Spec.t -> beta:Rat.t array -> q:int list -> Lp.t
(** The tightest Theorem-2 bound for a fixed small-index set [Q]:
    [min sum_i s_i + sum_{j in Q} beta_j t_j] subject to the [Q]-reduced
    support constraints and [t_j >= 1 - sum_{i in R_j} s_i], [t_j >= 0].
    Any feasible [s] of the reduced LP is admissible in Theorem 2, so the
    optimum of this LP is the least upper-bound exponent [k(Q)] the
    theorem can certify for this [Q]. Variables: [s_1..s_n] then one [t_j]
    per element of [Q] (in the order given). *)

val partition_footprint : Spec.t -> ell:Rat.t array -> target:Rat.t -> Lp.t
(** LP (5.1) in logs ([mu = lambda ln F], [u = ln F]), for the
    partition lower bound: [min u] subject to [sum_i mu_i >= target],
    [u - sum_{i in supp j} mu_i >= 0] per array and [mu_i <= ell_i] per
    loop, in that row order. Variables: [u] then [mu_1..mu_d]. Its
    optimal dual over the target row's multiplier is a point of the dual
    polyhedron of {!Tiling_plan}; see THEORY.md.
    @raise Invalid_argument if [ell] has the wrong arity. *)

val s_hbl : Spec.t -> Rat.t
(** Optimal value of {!hbl} — the exponent [sum s_i] of Section 3. *)

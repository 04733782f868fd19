(** Exact two-phase primal simplex over rationals.

    Pivoting uses Bland's anti-cycling rule, so the solver terminates on
    every input. All arithmetic is exact ({!module:Rat}), which the tiling
    theory requires: the active case of Theorem 2 is decided by exact
    comparisons like [sum_{i in R_j} s_i <= 1] that floating point cannot
    resolve reliably at the boundary. *)

type solution = {
  objective : Rat.t;  (** optimal objective value, in the problem's own direction *)
  primal : Rat.t array;  (** optimal values of the structural variables *)
  dual : Rat.t array;
      (** one multiplier per constraint; [dual.(i)] is the rate of change
          of the optimal objective per unit increase of constraint [i]'s
          right-hand side. At optimality [objective = dual . rhs]. *)
  pivots : int;  (** simplex pivots performed across both phases *)
  basis : int array;
      (** optimal basis: for each constraint row, the tableau column basic
          in it. Column layout: structurals [0..n-1], then one
          slack/surplus per inequality in row order, then one artificial
          per [Ge]/[Eq] row — the same layout {!module:Simplex_float}
          uses, so bases transfer between the two solvers. Feed it back to
          {!certify} to re-derive the exact solution without pivoting. *)
}

type result =
  | Optimal of solution
  | Unbounded of { direction : Rat.t array }
      (** a feasible ray: moving along it from some feasible point improves
          the objective without bound *)
  | Infeasible

val solve : Lp.t -> result

val solve_exn : Lp.t -> solution
(** @raise Failure on [Unbounded] or [Infeasible]. *)

val certify : Lp.t -> basis:int array -> solution option
(** [certify lp ~basis] checks a candidate optimal basis with exact
    arithmetic: eliminate the basis columns, then verify primal
    feasibility (all basic values non-negative) and dual feasibility (all
    reduced costs non-negative). On success the returned solution is
    exactly optimal and was obtained without a single simplex pivot —
    this is how a {!Simplex_float} pre-screen is confirmed. Returns [None] when the basis is
    malformed, singular, contains an artificial column, or is simply not
    optimal for this [lp]; callers then fall back to {!solve}. *)

val dual_objective : Lp.t -> Rat.t array -> Rat.t
(** [dual_objective lp y] is [y . rhs] — equal to the primal optimum at an
    optimal dual solution (strong duality). Exposed for tests and for the
    Theorem 3 machinery. *)

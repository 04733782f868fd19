(** Floating-point simplex — the foil for the exact solver.

    Same two-phase algorithm as {!module:Simplex} (Bland's rule, same
    column layout), but over IEEE doubles with an epsilon tolerance
    instead of exact rationals. It exists to make the design argument
    measurable: the tiling theory turns on exact ties
    ([sum_{i in R_j} s_i = 1], degenerate LP faces), and this solver's
    answers drift or mis-classify near them, while {!Simplex} is exact.
    Benchmarked against the exact solver in E16 and cross-checked in the
    test suite on well-conditioned problems.

    Production code only uses it as a pre-screen whose final basis
    {!Simplex.certify} confirms exactly ([Tiling.lp_value]). *)

type solution = {
  objective : float;
  primal : float array;
  basis : int array;
      (** the final basis, in {!module:Simplex}'s column layout (the two
          solvers build identical tableaus), so it can be handed to
          {!Simplex.certify} for exact confirmation *)
}

type result = Optimal of solution | Unbounded | Infeasible

val solve : ?eps:float -> Lp.t -> result
(** [eps] (default [1e-9]) is the pivoting/optimality tolerance. Rational
    problem data is converted with {!Rat.to_float}. *)

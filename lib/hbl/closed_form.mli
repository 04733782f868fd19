(** Piecewise-linear closed form of the optimal tile exponent (Section 7).

    For a fixed loop-nest shape, the optimal tile cardinality is
    [M^f(beta_1, .., beta_d)] where [f] is piecewise linear in the
    log-bounds [beta_i = log_M L_i]. The paper obtains [f] by feeding LP
    (5.1) to a multiparametric LP solver; here we compute it directly:
    [f(beta) = min] over the vertices [(zeta, s)] of the dual polyhedron
    [{zeta, s >= 0 : zeta_i + sum_{j in R_i} s_j >= 1}] of the affine
    functions [sum_j s_j + sum_i zeta_i beta_i]. The vertices are the
    level-0 set of the shape's compiled {!Tiling_plan} (the repository's
    one dual-vertex enumerator); they are sorted, deduplicated, and
    affine pieces that are nowhere strictly minimal on the box
    [0 <= beta_i <= box] are pruned with an auxiliary LP.

    For matmul this yields the familiar
    [f(beta) = min(3/2, 1 + beta_1, 1 + beta_2, 1 + beta_3)]. *)

type piece = {
  constant : Rat.t;  (** [sum_j s_j] at the vertex *)
  coeffs : Rat.t array;  (** [zeta], one coefficient per loop *)
}

type t = private {
  loops : string array;
  box : Rat.t;  (** the pieces form the exact minimum on [[0, box]^d] *)
  pieces : piece list;
}

val compute : ?box:Rat.t -> Spec.t -> t
(** Default box upper bound is 4 (i.e. loop bounds up to [M^4]).
    @raise Invalid_argument (message containing ["shape too large"]) if
    {!Tiling_plan.compile} refuses the shape: exactly the shapes past the
    plan's enumeration budget. *)

val eval : t -> Rat.t array -> Rat.t
(** [min] of the pieces at [beta]. Agrees with the LP-(5.1) optimum for
    any [beta] inside the box (property-tested). *)

val eval_piece : piece -> Rat.t array -> Rat.t
val num_pieces : t -> int
val pp : Format.formatter -> t -> unit

(** {1 Parametric regions}

    The multiparametric-LP view ([BBM03], as cited in Section 7): each
    affine piece is optimal on a polyhedral {e critical region} of
    beta-space. *)

type region = {
  piece : piece;
  inequalities : (Rat.t array * Rat.t) list;
      (** [(a, c)] meaning the half-space [a . beta >= c]; the region is
          their intersection with the box [0 <= beta_i <= box] *)
  witness : Rat.t array;
      (** a beta strictly inside the region (where the piece is the
          unique minimum) *)
}

val regions : t -> region list
(** One region per piece; regions cover the box and overlap only on
    their boundaries. *)

val region_contains : region -> Rat.t array -> bool
val pp_region : loops:string array -> Format.formatter -> region -> unit

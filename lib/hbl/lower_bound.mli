(** Communication lower bounds for arbitrary loop bounds (Section 4).

    The central quantity is the optimal tile-size exponent
    [k_hat = min_{Q subseteq [d]} k(Q)]: any execution segment that
    touches at most [M] words of each array covers at most [M^k_hat]
    iterations (Theorem 2), hence moving the whole iteration space through
    a cache of [M] words costs at least
    [(prod_i L_i / M^k_hat) * M = prod_i L_i * M^(1 - k_hat)] words of
    traffic.

    By Theorem 3 [k_hat] is the value [f(beta)] of the tiling LP (5.1), so
    {!communication} is arithmetic over one pricing function [f] (plan
    vertex minimum or certified LP value). The literal [2^d] enumeration
    and the dual LP (5.6) are the oracles tests compare against. *)

type exponent = {
  k_hat : Rat.t;  (** [log_M] of the tile-size upper bound *)
  witness_q : int list;  (** a minimizing small-index set [Q] *)
}

val beta_of_bounds : m:int -> int array -> Rat.t array
(** [beta_of_bounds ~m bounds] is [log_M L_i] for each loop, capped below
    at 0 ([L_i = 1] gives [beta_i = 0]) and converted to an exact rational
    via continued fractions (denominator at most [10^6] — far finer than
    any tile rounding effect).
    @raise Invalid_argument if [m < 2] or some bound is non-positive. *)

val beta_pow : base:int -> m_exp:int -> int -> Rat.t
(** Exact [beta] for power-of-[base] sizes: with [M = base^m_exp] and
    [L = base^l_exp], [beta = l_exp / m_exp] exactly. The argument is the
    actual bound [L]; it must be a power of [base].
    @raise Invalid_argument otherwise. *)

val k_of_q : Spec.t -> beta:Rat.t array -> q:int list -> Rat.t
(** Least Theorem-2 exponent for a fixed [Q] (see {!Hbl_lp.theorem2_q}).
    By LP duality it equals [f(beta^Q)], the LP (5.1) value at
    [beta^Q_i = beta_i] for [i] in [Q] and [1] elsewhere. *)

val k_of_q_literal : Spec.t -> beta:Rat.t array -> q:int list -> Rat.t
(** The paper's literal formula: solve the [Q]-reduced HBL LP for
    [s_hat], then evaluate
    [sum_i s_hat_i + sum_{j in Q, sum_{i in R_j} s_hat_i <= 1}
       beta_j (1 - sum_{i in R_j} s_hat_i)].
    May exceed {!k_of_q} when the reduced LP has multiple optima; always a
    valid upper-bound exponent. *)

val exponent_by_enumeration : ?max_dim:int -> Spec.t -> beta:Rat.t array -> exponent
(** [min_Q k(Q)] over all [2^d] subsets.
    @raise Invalid_argument if [d > max_dim] (default 20). *)

val exponent_by_lp : Spec.t -> beta:Rat.t array -> exponent
(** Same value via one dual-tiling-LP solve; [witness_q] is read off the
    optimal dual solution ([Q = {i : zeta_i > 0}], Theorem 3 case
    analysis), so on ties it depends on the solver's vertex. *)

type bound = {
  exponent : exponent;
  m : int;
  iterations : float;  (** [prod_i L_i] *)
  tile_cap : float;  (** [M^k_hat]: max iterations per cache-full of data *)
  words : float;
      (** the headline bound, valid in every regime:
          [max(words_paper, trivial_words)] when the iteration space
          needs more than one tile, and [trivial_words] when everything
          fits one cache-full (the Section-6.3 caveat, where the paper's
          formula charges a full [M] and over-states the requirement) *)
  words_paper : float;
      (** the paper's literal formula [iterations / tile_cap * M] — what
          the reproduction tables compare against Section 6's closed
          forms *)
  words_classic : float;
      (** the Section-3 large-bounds bound [iterations * M^(1 - s_HBL)],
          for comparison; not valid to quote when bounds are small —
          it can exceed or undershoot the true requirement *)
  trivial_words : float;  (** size of all arrays: read inputs + write outputs once *)
}

val communication :
  Spec.t -> m:int -> beta:Rat.t array -> price:(Rat.t array -> Rat.t) ->
  lambda:Rat.t array -> k_hat:Rat.t -> bound
(** The bound for a cache of [m] words from the canonical (lex-max)
    optimum [lambda] of LP (5.1) at [beta], its value [k_hat], and
    [price] = [f]. No LP of its own: [s_HBL = f(1, ..., 1)] (every loop
    is used, so the bound rows are slack), and [witness_q] starts from
    the tight loops [{i : lambda_i = beta_i}] and, in index order, drops
    [i] whenever [k(Q \ {i}) = k_hat]. That [Q] is inclusion-minimal, empty
    exactly when [k_hat = s_HBL], and a function of [f] and [lambda]
    alone, so the plan and LP paths agree on it. *)

val pp_bound : Format.formatter -> bound -> unit

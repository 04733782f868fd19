(** Distributed-memory communication model (Section 7 extension).

    Model: [P] processors, the arrays initially distributed; a processor
    assigned an iteration block must receive every array element its
    block touches, so its communication volume is the block's total
    footprint [sum_j prod_{i in support j} ceil(L_i / p_i)] (we charge
    output blocks symmetrically as sends). The cost of a grid is the
    maximum over processors, i.e. the cost of one (full-size) block.

    The matching lower bound reuses the sequential machinery: a processor
    executing [V = prod L_i / P] iterations whose per-array footprint is
    [F] covers at most [F^k_hat(F)] iterations (Theorem 2 with [M = F]),
    so its footprint — and hence its received volume — must be at least
    the smallest [F] with [F^k_hat(F) >= V], found by one LP (THEORY.md). *)

type grid_cost = {
  grid : int array;
  block : int array;  (** per-processor block dimensions *)
  words : Bigint.t;
      (** per-processor communication volume; exact, since a full-support
          footprint can exceed [max_int] *)
}

val cost : Spec.t -> grid:int array -> grid_cost

val best_grid : Spec.t -> p:int -> grid_cost option
(** Minimum-cost rectangular grid over all factorizations; [None] when
    [p] does not factor within the loop bounds. *)

val simulated_block : Spec.t -> block:int array -> int
(** Footprint of one block by execution: run the [block]-shaped sub-nest
    and count the distinct words it touches — the data the owning
    processor must receive. *)

val simulated_cost : Spec.t -> grid:int array -> int
(** Cross-check of {!cost} by execution: {!simulated_block} on one
    (full-size) block. Equals [cost] exactly (tested), since a
    rectangular block touches a rectangular sub-array of every array. *)

val block_groups : Spec.t -> grid:int array -> (int array * int) list
(** The distinct per-processor block shapes the grid induces, each with
    the number of processors owning that shape (counts sum to at most
    [prod grid]; processors whose ceiling-allocated slice is empty are
    omitted). At most three shapes per dimension (full, remainder,
    empty), so at most [3^d] groups — this is what lets the Pool
    validator simulate a 4096-processor run with a handful of domains,
    one per group. The full-size block (the grid's cost) is always the
    first entry when it exists. *)

type processor_run = {
  grid : int array;
  m_local : int;  (** per-processor fast-memory words *)
  tile : int array;  (** the local tiling used inside the block *)
  words_per_proc : int;
      (** simulated words moved between one processor's fast memory and
          the network/remote memory while executing its block *)
}

val simulate_processor : Spec.t -> grid:int array -> m_local:int -> processor_run
(** The memory-{e dependent} distributed cost ([ITT04]-style): each
    processor owns a rectangular block of the iteration space and runs it
    through a local cache of [m_local] words using the
    communication-optimal local tiling; everything beyond the cache is
    remote traffic. Compare with {!cost}, the memory-independent gather
    volume: for small [m_local] the simulated cost exceeds it (the
    processor re-fetches data it cannot hold), and as [m_local] grows it
    converges to the footprint.
    @raise Invalid_argument if the block is too large to simulate. *)

val min_footprint : Spec.t -> iterations:float -> float
(** Smallest per-array footprint [F], in whole words, of a tile that
    covers [iterations] points (Theorem 2 with [M = F]): one exact LP
    ({!Hbl_lp.partition_footprint}) gives the binding dual vertex
    [(zeta, sigma)], and [F = (I / prod_i L_i^zeta_i)^(1/sigma)] is
    evaluated in floats and reported as [ceil(F (1 - 1e-9))], so exact
    powers stay exact. [1.0] when [iterations <= 1]; above [prod L_i] it
    is clamped. *)

val lower_bound : Spec.t -> p:int -> float
(** [min_footprint] at [iterations = prod L_i / p], the per-processor
    communication lower bound, with [ln p] taken exactly from [p]. *)

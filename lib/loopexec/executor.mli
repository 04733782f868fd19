(** Run a loop nest against the cache simulator.

    Each iteration point touches every array of the spec at its projected
    element: [Read] arrays are read, [Write] arrays are written, [Update]
    arrays are read then written (read-modify-write). The resulting word
    trace is fed to the cache; the returned statistics include the final
    flush, so all output data is accounted as traffic.

    This is the empirical side of the reproduction: measured
    [words_moved] for the schedule built by {!Tiling.optimal} is compared
    against the lower bound of {!Pipeline.lower_bound} in the benchmarks.

    {b The row walker.} One traversal serves {!run}, {!run_hierarchy}
    and {!trace_of}. In the projective case array [j]'s address is
    [base_j + sum_i stride_j.(i) * x_i] ({!Layout.strides}), so along a
    row of {!Schedules.iterate_rows} every array moves by a constant
    step, [0] when the row's loop is outside its support. The row's loop
    is the innermost loop that still varies in the current block (loops
    inside it have one value there), not always the last loop: a
    Theorem-3 tile such as [[152; 1]] walks rows of 152 points along its
    first loop instead of 152 rows of one point. Nothing below depends
    on which loop the row runs along. Each row computes every array's
    start address once and then runs a counted loop adding the steps;
    strictly consecutive touches of one line merge into a
    {!Cache.access_run} / {!Hierarchy.access_run} call
    ([cachesim.batched_runs]). The caches get a dense line table
    ([Cache.create ~lines]): layout addresses fill
    [[0, Layout.total_words)], so a line's slot is one array access,
    for layouts up to 2^22 lines (16 MiB of table); larger ones use the
    hashed table.

    {b Elision (LRU only).} With [C] first-level lines, [n] arrays and
    [v >= 1] of them varying along the row, and [C >= 2n]: the row's
    first and last points and every [K]-th point, [K = 1 + (C - 2n) / v],
    touch every array; the other points touch only the varying arrays,
    and each invariant array's skipped touches are added to the [count]
    of its next touch ([executor.elided_touches] counts them). The
    statistics are exactly those of the per-point replay: between two
    full points an invariant line has at most
    [(n - 1) + v (K - 1) + (n - 1) <= C - 2] other lines above it in the
    LRU stack, so it stays resident and every skipped touch is a hit;
    skipping a touch does not reorder the other lines, so with the
    invariant lines pinned the cache holds the same lines, and every
    hit, miss and victim is unchanged; the line is already dirty from
    the row's first point; and the last point is full, so the recency
    order at the row's end is the unelided one. FIFO and OPT never
    elide, and levels below an LRU first level see only its misses and
    dirty evictions, which are unchanged. *)

type result = {
  schedule : Schedules.t;
  policy : Policy.t;
  capacity : int;
  stats : Cache.stats;
  words_moved : int;  (** misses + writebacks, in words *)
}

val run :
  ?line_words:int ->
  ?policy:Policy.t ->
  Spec.t ->
  schedule:Schedules.t ->
  capacity:int ->
  result
(** Default policy is [Lru]. [Opt] materializes the whole trace first;
    {!trace_length} accesses of memory are needed, and the call refuses
    traces above {!opt_trace_limit} accesses.
    @raise Invalid_argument on an invalid schedule or oversized OPT
    trace. *)

val opt_trace_limit : int
(** [2^22]: the longest trace an [Opt] simulation materializes. A
    materialized access costs tens of bytes, so this caps one OPT run at
    a few hundred megabytes. {!Pipeline} refuses requests above it before
    any work starts. *)

type hierarchy_result = {
  hschedule : Schedules.t;
  capacities : int array;
  hstats : Cache.stats array;  (** one per level *)
  boundary_words : int array;
      (** words crossing each boundary; the last entry is main-memory
          traffic *)
}

val run_hierarchy :
  ?line_words:int ->
  ?policy:Policy.t ->
  Spec.t ->
  schedule:Schedules.t ->
  capacities:int array ->
  hierarchy_result
(** Execute against a {!Hierarchy} of caches (fastest first). Use with
    {!Schedules.Nested} tiles from {!Tiling.nested} to check multi-level
    attainment. Final flush cascades through all levels. *)

val accesses_per_point : Spec.t -> int
(** Word accesses per iteration point: one per [Read] or [Write] array,
    two per [Update] array. *)

val trace_length : Spec.t -> int
(** Number of word accesses one full execution generates:
    [iterations * (n_reads + n_writes)] with [Update] counting twice. *)

val trace_of : Spec.t -> schedule:Schedules.t -> Trace.t
(** Materialize the access trace (for OPT simulation or inspection). *)

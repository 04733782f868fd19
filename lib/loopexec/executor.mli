(** Run a loop nest against the cache simulator.

    Each iteration point touches every array of the spec at its projected
    element: [Read] arrays are read, [Write] arrays are written, [Update]
    arrays are read then written (read-modify-write). The resulting word
    trace is fed to the cache; the returned statistics include the final
    flush, so all output data is accounted as traffic.

    This is the empirical side of the reproduction: measured
    [words_moved] for the schedule built by {!Tiling.optimal} is compared
    against the lower bound of {!Pipeline.lower_bound} in the benchmarks. *)

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
    {!trace_length} words of memory are needed, and the call refuses
    traces above [10^8] accesses.
    @raise Invalid_argument on an invalid schedule or oversized OPT
    trace. *)

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

val trace_length : Spec.t -> int
(** Number of word accesses one full execution generates:
    [iterations * (n_reads + n_writes)] with [Update] counting twice. *)

val trace_of : Spec.t -> schedule:Schedules.t -> Trace.t
(** Materialize the access trace (for OPT simulation or inspection). *)

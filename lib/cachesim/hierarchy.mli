(** Multi-level memory hierarchy simulation.

    The paper's model (one fast memory in front of slow memory) composes:
    between every pair of adjacent levels the same lower bound applies
    with [M] = the size of the faster level. This module chains caches in
    a lookup-through cascade — an access that misses level [k] is
    forwarded to level [k+1]; a dirty line evicted from level [k] is
    written through to level [k+1] — so the traffic across each boundary
    can be compared against the per-level bounds, and nested tilings
    ({!Tiling.nested}, {!Schedules.Nested}) can be validated at every
    level at once. *)

type t

val create :
  ?line_words:int -> ?lines:int -> ?policy:Policy.t -> capacities:int array -> unit -> t
(** [capacities] are the level sizes in words, fastest (smallest) first;
    they must be strictly increasing. Default policy is LRU at every
    level. [lines] is passed to every level's {!Cache.create}: the
    promise that every line lies in [[0, lines)], for a flat line table
    per level.
    @raise Invalid_argument on an empty or non-increasing ladder, or
    [policy = Opt]. *)

val levels : t -> int

val access : t -> write:bool -> int -> unit

val access_run : t -> first_write:bool -> any_write:bool -> count:int -> int -> unit
(** [access_run t ~first_write ~any_write ~count addr] — [count]
    consecutive touches of the line containing [addr], batched. Exactly
    equivalent to replaying the run word by word: the first level absorbs
    the whole run ({!Cache.access_run} with [any_write]); deeper levels
    are visited only when the first level was not already resident, and
    then see a single access carrying [first_write] — the run's touches
    after the first hit the first level and never reach them.
    [count = 0] is a no-op. *)

val flush : t -> unit
(** Flush every level, innermost first, cascading dirty write-backs. *)

val stats : t -> Cache.stats array
(** Per-level statistics. Level [k]'s accesses are exactly level
    [k-1]'s misses plus its forwarded write-backs. *)

val traffic : t -> int array
(** [traffic t] has one entry per boundary: words moved between level
    [k] and level [k+1] (the last entry is the traffic to main memory).
    Entry [k] is [misses_k + writebacks_k] in words. *)

val record_obs : t -> unit
(** Record every level's statistics into the global {!Obs} counters under
    [cachesim.L<k>] (levels numbered from 1, fastest first). Call once
    after {!flush}. *)

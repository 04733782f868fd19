(** Online fully-associative cache simulator.

    Models the paper's machine (Section 2): a fast memory of [capacity]
    words in front of an unbounded slow memory. Communication is counted
    in words: every miss moves one line ([line_words], default 1 — the
    paper's model) from slow memory, and every eviction or flush of a
    dirty line moves one line back.

    Supports {!Policy.Lru} and {!Policy.Fifo} online; Belady-OPT needs the
    future and lives in {!Trace.simulate}. Misses on writes allocate
    (write-allocate, write-back). *)

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  evictions : int;
  writebacks : int;  (** dirty lines written back on eviction or flush *)
}

val words_moved : line_words:int -> stats -> int
(** [(misses + writebacks) * line_words] — total slow-memory traffic. *)

type t

val create :
  ?line_words:int ->
  ?lines:int ->
  ?on_evict:(line:int -> dirty:bool -> unit) ->
  policy:Policy.t ->
  capacity:int ->
  unit ->
  t
(** [capacity] is in words and must be at least [line_words]. [on_evict]
    is called for every line leaving the cache (evictions and
    {!flush}) — {!module:Hierarchy} uses it to forward dirty write-backs
    to the next level.

    [lines] is the caller's promise that every accessed line lies in
    [[0, lines)], i.e. every address in [[0, lines * line_words)]. The
    line-to-slot map is then a flat table of [lines] 4-byte entries
    (allocated off the OCaml heap) instead of a hash table: one lookup
    per access. Statistics are identical either way. An access to a line
    outside the range raises [Invalid_argument] and leaves the cache
    unchanged. Without [lines] any address is accepted, negative ones
    included.
    @raise Invalid_argument on a non-positive size, [line_words] not
    dividing into capacity at least once, [lines] outside
    [[0, 2^31)], or [policy = Opt]. *)

val access : t -> write:bool -> int -> unit
(** Touch one word at the given address. Negative addresses are valid
    for a cache created without [lines]; line mapping uses floor
    division so every line spans exactly [line_words] words.
    @raise Invalid_argument if the cache was created with [lines] and
    the address's line is outside [[0, lines)]. *)

val access_run : t -> write:bool -> count:int -> int -> unit
(** [access_run t ~write ~count addr] — [count] consecutive touches of
    words on the {e line} containing [addr], in one step. Statistically
    exact, not approximate: after the first touch the line is resident
    (and most-recent under LRU), so the remaining [count - 1] touches are
    guaranteed hits under any policy, and one recency splice equals
    [count] singleton splices. [write] must be true iff {e any} of the
    batched touches writes (write-allocate makes the line dirty either
    way). [count = 0] is a no-op. This is the fast path the loop executor
    uses: it turns per-word simulation into per-line-run simulation. *)

val flush : t -> unit
(** Evict every resident line: counted in [evictions], dirty ones also in
    [writebacks], and [on_evict] fires for each. Call once at the end of
    a computation so output traffic is accounted. *)

val stats : t -> stats
val capacity_lines : t -> int
val resident : t -> int -> bool
(** Is the line containing this word address currently cached?
    @raise Invalid_argument like {!access} for a line outside
    [[0, lines)]. *)

val record_obs : ?prefix:string -> stats -> unit
(** Add a finished run's statistics to the global {!Obs} counters
    [<prefix>.accesses|hits|misses|evictions|writebacks] (default prefix
    ["cachesim.L1"]). Aggregate instrumentation: one call per simulated
    run, never per access — the access path stays instrumentation-free. *)

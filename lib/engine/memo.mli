(** Memo cache for LP/analysis results, keyed by canonicalized specs.

    Solving the tiling LP and the dual lower-bound LP with exact rational
    arithmetic dominates analysis cost; sweeps re-solve the same
    [(spec, beta)] point once per schedule/policy combination and CLI
    invocations re-solve it from scratch. Caching behind a canonical key
    makes repeats free.

    The canonical key of a spec ignores loop and array {e names} and the
    order in which arrays are listed: two programs with the same loop
    bounds and the same multiset of (support, mode) rows analyze
    identically, so they share cache entries.

    Tables are domain-safe and sharded: keys hash onto a power-of-two
    array of shards, each with its own mutex, so concurrent lookups of
    different keys rarely contend (the serve daemon runs many
    connections' requests against these tables at once). Hit/miss/entry
    counts are atomics outside the shard locks. Computations still run
    outside any lock (a racing duplicate compute of the same
    deterministic value is harmless and cheaper than holding a lock
    across an LP solve; first writer wins). *)

type 'a t

val create : ?shards:int -> ?name:string -> unit -> 'a t
(** [shards] (default 16) is rounded up to a power of two; 1 gives the
    old single-lock behavior. A named table additionally mirrors its hit/miss counts into the
    global {!Obs} counters [memo.<name>.hits] / [memo.<name>.misses] and
    its live entry count into the gauge [memo.<name>.entries], so
    snapshots show per-cache effectiveness and footprint. {!clear}
    resets the per-table counters and zeroes the entries gauge; the
    hit/miss mirrors are monotonic and reset with {!Obs.reset}. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_add t key compute] returns the cached value for [key],
    computing and caching it on first use. *)

val find_opt : 'a t -> string -> 'a option
(** Lookup only; counts a hit or a miss. *)

val add : 'a t -> string -> 'a -> unit
(** Insert if absent (first writer wins). *)

val hits : 'a t -> int
val misses : 'a t -> int

val length : 'a t -> int
(** Live entries across all shards. *)

val to_alist : 'a t -> (string * 'a) list
(** Every entry, sorted by key — the deterministic order makes cache
    snapshots byte-stable. Locks each shard in turn (the result is a
    consistent view of each shard, not of the whole table). *)

val clear : 'a t -> unit
(** Drop all entries and reset the hit/miss counters (for tests). *)

val key_of_spec : Spec.t -> string
(** Canonical rendering of bounds + sorted (support, mode) rows; loop and
    array names do not appear. *)

val key_of_shape : Spec.t -> string
(** {!key_of_spec} without the bounds prefix ({!Tiling_plan.shape_key}):
    the key of the kernel's {e shape} alone. Everything the tiling plan
    serves depends only on this, so plans for [matmul] at 512-cubed and
    4096-cubed are one cache entry. *)

val key_of_spec_beta : Spec.t -> beta:Rat.t array -> string
(** {!key_of_spec} extended with the exact rational [beta] vector. *)

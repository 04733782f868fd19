(** Disk persistence for the engine's memo caches.

    One file per cache directory — [tilings_caches.json], the versioned
    snapshot produced by {!Pipeline.cache_snapshot}. The serve CLI's
    [--cache-dir DIR] loads it at boot and rewrites it on drain, so
    restarts and new replicas start with warm plan and tile tables
    instead of cold-solving every shape again.

    Durability: saves write to a temp file in the same directory and
    [rename] over the target, so a crash mid-save leaves the previous
    snapshot intact. Loads are corruption-tolerant per entry (see
    {!Pipeline.cache_restore}): a damaged entry is skipped and counted,
    only an unreadable/mis-versioned document fails the load — and even
    that is a warning at the call site, never a dead daemon.

    Observability: counters [cache.store.saved_entries],
    [cache.store.loaded_entries], [cache.store.rejected_entries] and
    timers [cache.store.save] / [cache.store.load]. *)

val file_name : string
(** ["tilings_caches.json"]. *)

val path : dir:string -> string

val save : dir:string -> (int, string) result
(** Snapshot every durable cache into [dir] (created if missing),
    atomically. [Ok n] is the number of entries written. *)

val load : dir:string -> (int * int, string) result
(** Restore the snapshot in [dir] into the caches. [Ok (loaded,
    rejected)]; a missing file is [Ok (0, 0)] — first boot is not an
    error. *)

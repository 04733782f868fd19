(** Deterministic parallel map over OCaml 5 domains, scheduled from two
    class queues under one lock.

    Independent sweep points (per-(M, schedule, policy) simulations,
    per-kernel LP solves) are embarrassingly parallel; this module fans
    them out over a small pool of domains while keeping the result order
    identical to the sequential path — element [i] of the result always
    comes from element [i] of the input, so parallel and sequential runs
    produce byte-identical reports.

    {b Scheduling.} Items wait in two FIFO queues, one per {!priority}
    class, under one mutex; idle workers wait on a condition variable.
    A worker claims the oldest [Analytic] item, else the oldest
    [Simulation] item — the claim policy of the serve loop — so a
    sub-millisecond analytic request is never stuck behind a
    multi-second simulation. {!map_staged} sharpens this further: an
    item's cheap first stage runs at its submitted class, and the
    [More] continuation it returns (the heavy tail) re-queues at the
    back of the [Simulation] queue instead of blocking the lane.

    The pool size defaults to {!Domain.recommended_domain_count} and can
    be overridden with the [PROJTILE_JOBS] environment variable (or the
    [?jobs] argument, which wins). [jobs <= 1] degrades to a plain
    sequential map with no domains spawned. Each parallel call spawns
    its [jobs - 1] workers and joins them before returning.

    Observability: besides the busy/idle/wall timers, every task stage
    records its submit-to-start latency in ["pool.queue_wait"] {e and}
    in its class's ["pool.queue_wait.analytic"] /
    ["pool.queue_wait.simulation"] timer (the per-class histograms are
    the stage split's acceptance metric) and its runtime in
    ["pool.task"]. ["pool.domains_spawned"] counts
    spawned workers, ["pool.idle_domains"] gauges the instantaneous
    idle width, and with {!Obs.Trace} enabled each stage execution is a
    ["pool.task"] span tagged with the item index on the executing
    worker's lane (worker 0 is the caller's domain; each spawned worker
    is ["worker-N"], N counted across the process, so a trace that spans
    several calls never repeats a lane name). *)

type priority =
  | Analytic
      (** closed-form / LP / plan work: sub-millisecond, latency-bound *)
  | Simulation  (** cache-simulation work: seconds, throughput-bound *)

type 'b staged =
  | Done of 'b  (** the item finished in its first stage *)
  | More of (unit -> 'b)
      (** cheap stage finished; the thunk is the heavy tail, re-queued
          at the back of the [Simulation] queue *)

val default_jobs : unit -> int
(** [PROJTILE_JOBS] if set to a positive integer, otherwise
    {!Domain.recommended_domain_count}. A set-but-invalid value (["0"],
    ["abc"], ["-3"]) falls back too, after printing a one-line warning on
    stderr — misconfiguration is never silent. An empty/blank value
    counts as unset. *)

val validate_jobs : string -> int option
(** The [PROJTILE_JOBS] parse {!default_jobs} uses: [Some n] for a
    (trimmed) positive integer, [None] for anything else. Exposed for
    tests. *)

val map_staged :
  ?jobs:int ->
  classify:('a -> priority) ->
  ('a -> 'b staged) ->
  'a array ->
  'b array
(** [map_staged ~classify f xs] applies [f] to every element with up to
    [jobs] concurrent workers; a [More] thunk returned by [f] is
    scheduled as a separate [Simulation]-class task. Results keep input
    order. If any stage raises, the first (lowest-index) exception is
    re-raised after all domains have joined. Bench E19 measures this
    scheduler against a class-blind FIFO it builds itself. *)

val map_staged_list :
  ?jobs:int ->
  classify:('a -> priority) ->
  ('a -> 'b staged) ->
  'a list ->
  'b list
(** List version of {!map_staged}. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    applications concurrently ([map_staged] with every item a
    single-stage [Analytic] task). Results keep input order. If any
    application raises, the first (lowest-index) exception is re-raised
    after all domains have joined. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}. *)

(** The [tilings serve] daemon: a long-running front-end over the
    engine pipeline.

    Why a daemon: every one-shot CLI invocation pays process startup and
    a cold memo cache, but the expensive exact-LP stages depend only on
    the canonical [(spec, beta, m)] point — across requests the shared
    {!Memo} tables amortize them. Over stdin/stdout ({!serve},
    {!run_pipe}) concurrently-arriving requests batch into one
    {!Pool}-parallel sweep; the socket daemon ({!run_daemon}) runs each
    request as it arrives on one of [jobs] persistent domains.

    Production semantics:
    - {b Classed admission}: requests are decoded and classified at
      admission — [Analytic] (no simulations: plan/LP/closed-form, the
      sub-millisecond class; compile requests too) or [Simulation]
      (carries simulated executions) — and each class has its own
      [queue_capacity] seats, so a flood of simulation work cannot
      crowd analytic requests out of admission (or vice versa). Over
      the pipe a class has [queue_capacity] seats per batch cycle; in
      the daemon, a line read while [queue_capacity] requests of its
      class are waiting for a domain is over the cap. Lines over the
      cap are answered with a structured [overloaded] error instead of
      buffered without bound (anything not yet read stays in the OS
      buffer — that is the transport's own backpressure). Analytic
      work is run ahead of simulation work: inside a pipe batch by the
      {!Pool} scheduler, in the daemon by claim order.
    - {b Deadlines}: a request's [deadline_ms] budget starts at
      admission (queue wait counts). Expiry returns a [deadline_exceeded]
      response, checked at pipeline stage boundaries
      ({!Pipeline.run_checked}); a [deadline_ms] of 0 fails before any
      work — the liveness probe.
    - {b Ordering}: one response line per request line, in arrival
      order (per connection, in the daemon), errors included. A
      response that finishes before an earlier line's waits for it.
    - {b Drain}: EOF (or a [stop] flag flipped by SIGTERM/SIGINT)
      stops reading, finishes every admitted request, flushes its
      response, and returns — no request is half-answered. The daemon
      joins its domains before returning.
    - {b Isolation}: a malformed or failing request yields an error
      response; the loop keeps serving.
    - {b Plan warm-up}: the first request touching a new kernel shape
      compiles its {!Tiling_plan} and is answered from it
      ({!Pipeline.plan_of}), so no request for a compilable shape
      solves a tiling LP. [--plans FILE] preloads
      compiled plans at startup and skips even the first compile for
      those shapes.

    - {b Correlation}: every response carries a non-null ["id"] —
      the client's own when it sent one (echoed byte-for-byte), a
      minted ["srv-N"] otherwise. Mint counters are scoped to the
      session (one pipe, or one accepted connection) in arrival order,
      so each client sees its own [srv-1], [srv-2], ... sequence and a
      connection's transcript is byte-identical to serving it alone.
      The id is also the ambient {!Obs.Log} correlation id while the
      request runs — re-established around each pool stage, since
      staged requests may finish on a different worker domain — so
      [serve.request] / [pipeline.request] log lines join to response
      lines exactly.

    Observability ([serve.*], via {!Obs}): counters [serve.requests],
    [serve.responses], [serve.batches], [serve.errors],
    [serve.parse_errors], [serve.deadline_exceeded],
    [serve.rejected_overloaded], [serve.connections] (total accepted),
    high-watermarks
    [serve.batch_size_max] / [serve.queue_depth_max] / [serve.pool_jobs],
    [serve.domains_spawned] (the daemon's [jobs - 1] domains, counted
    once at start), gauges [serve.queue_depth] (in the daemon, the
    requests waiting for a domain right now; over the pipe, the depth
    of the batch cycle being worked, 0 between batches) with its
    per-class split [serve.queue_depth.analytic] /
    [serve.queue_depth.simulation], [serve.inflight] (requests
    executing right now) and [serve.open_connections] (clients
    currently connected), and timers (with latency histograms)
    [serve.request], [serve.batch] (pipe only) and the per-class
    latency histograms [serve.request.analytic] /
    [serve.request.simulation]. In the daemon a "batch" is one poller
    turn that read at least one line. Each pipe batch is a
    [serve.batch] trace span with a [pool.task] child per request
    stage; each daemon request is a [serve.request] span on the lane of
    the domain that ran it. Structured log events (when a {!Obs.Log}
    sink is set): [serve.request] (info, per request: id/op/status/ms,
    written just before the response line, so log order = response
    order), [serve.slow_request] (warn, see [slow_s]),
    [serve.overloaded] (warn, per rejection), [serve.batch] (debug, per
    pipe cycle), [serve.listen] / [serve.connection] /
    [serve.disconnect] (info, connection lifecycle). *)

type event =
  | Line of string  (** one complete request line, newline stripped *)
  | Oversized
      (** a line longer than 1 MiB, discarded by the transport without
          buffering it; answered with one [invalid_request] naming the
          limit *)
  | Wait  (** nothing available without blocking (or interrupted) *)
  | Eof

type config = {
  jobs : int;
      (** domains that run requests (the pool width of a pipe batch;
          the daemon's persistent domains, the caller's included),
          resolved {e once} at daemon start (never re-read from
          [PROJTILE_JOBS] per request) *)
  queue_capacity : int;
      (** per request class: max requests admitted per pipe batch
          cycle, or max requests waiting for a daemon domain *)
  default_deadline_s : float option;
      (** budget applied when a request carries no [deadline_ms] *)
  slow_s : float option;
      (** requests at least this slow additionally emit a
          [serve.slow_request] warning with per-stage wall times
          (the CLI's [--slow-ms]); [None] disables the slow log *)
}

val default_config : unit -> config
(** [jobs = Pool.default_jobs ()], [queue_capacity = 512], no default
    deadline, no slow-request threshold. *)

val serve :
  ?stop:(unit -> bool) -> config -> next:(block:bool -> event) ->
  emit:(string -> unit) -> unit
(** The transport-agnostic loop: pull lines with [next], push response
    lines (no trailing newline) with [emit]. [next ~block:true] may
    return [Wait] only when interrupted (the loop re-checks [stop] and
    retries); [next ~block:false] returns [Wait] when reading would
    block, which closes the current batch. Returns on [Eof] or when
    [stop] reads true between cycles. *)

(** {1 Transports} *)

val reader_of_fd : Unix.file_descr -> block:bool -> event
(** Buffered line reader over a file descriptor. Non-blocking probes use
    [select]; [EINTR] surfaces as [Wait] so signal flags get checked.
    A line is buffered up to 1 MiB (1,048,576 bytes, newline excluded);
    past that the reader yields [Oversized] once and drops the rest of
    the line up to its newline, so later lines are still served. *)

val run_pipe : ?stop:(unit -> bool) -> config -> unit
(** Serve stdin -> stdout until EOF. Responses are written and flushed
    line-by-line. A broken stdout ([EPIPE]) drains and returns. *)

val run_daemon :
  ?stop:(unit -> bool) ->
  config ->
  ?socket_path:string ->
  ?tcp_port:int ->
  unit ->
  unit
(** The multi-client daemon: listen on a Unix-domain stream socket at
    [socket_path] (an existing file there is replaced; removed on
    return) and/or on TCP [tcp_port] bound to 127.0.0.1 (0 lets the
    kernel pick; the bound port is announced on stderr as
    ["serve: listening on 127.0.0.1:PORT"]). At least one listener is
    required ([Invalid_argument] otherwise).

    Connections are served {e concurrently} by [cfg.jobs] domains, the
    caller's and [jobs - 1] spawned once for the daemon's lifetime, all
    running one leader/follower loop. A domain claims a waiting
    analytic request, else a waiting simulation, and runs it; one that
    finds both queues empty takes the single poller role, reads at most
    one line per connection (rotating round-robin start, so no
    connection is structurally first), admits them, gives the role up
    and claims work itself. The domain that finishes a request writes
    its response back to the connection it came from, in that
    connection's arrival order. With [jobs = 1] no domain is spawned:
    each line is read, run and answered on the calling domain. Every
    connection gets its own mint session ([srv-1], [srv-2], ... each),
    its own correlation-id scope, and per-response bytes identical to
    what a one-shot pipe session would produce for the same lines.
    EOF from a client closes its connection once every line read from
    it is answered; a client that vanishes mid-write is dropped without
    disturbing the others. [stop] is polled by each poller turn; once
    it reads true nothing more is read, every admitted request is
    answered, and the domains are joined before returning. Callers
    should ignore [SIGPIPE] so a vanishing client surfaces as [EPIPE]
    (handled per connection) rather than killing the daemon. *)

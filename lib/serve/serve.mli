(** The [tilings serve] daemon: a long-running front-end over the
    engine pipeline.

    Why a daemon: every one-shot CLI invocation pays process startup and
    a cold memo cache, but the expensive exact-LP stages depend only on
    the canonical [(spec, beta, m)] point — across requests the shared
    {!Memo} tables amortize them. Over stdin/stdout ({!serve},
    {!run_pipe}) and over sockets ({!run_daemon}) one dispatch loop runs
    each request as it arrives on one of [jobs] persistent domains; the
    pipe is that loop with a single connection and no listener.

    Production semantics:
    - {b Classed admission}: requests are decoded and classified at
      admission — [Analytic] (no simulations: plan/LP/closed-form, the
      sub-millisecond class; compile requests too) or [Simulation]
      (carries simulated executions) — and each class has its own
      [queue_capacity] seats, so a flood of simulation work cannot
      crowd analytic requests out of admission (or vice versa). A line
      read while [queue_capacity] requests of its class are waiting for
      a domain is over the cap and answered with a structured
      [overloaded] error instead of buffered without bound (anything
      not yet read stays in the OS buffer — that is the transport's own
      backpressure). Over one pipe each line is read by the domain that
      will run it, so nothing waits and the pipe never answers
      [overloaded]. Analytic work is run ahead of simulation work by
      claim order.
    - {b Deadlines}: a request's [deadline_ms] budget starts at
      admission (queue wait counts). Expiry returns a [deadline_exceeded]
      response, checked at pipeline stage boundaries
      ({!Pipeline.run_checked}); a [deadline_ms] of 0 fails before any
      work — the liveness probe.
    - {b Ordering}: one response line per request line, in arrival
      order per connection, errors included. A response that finishes
      before an earlier line's waits for it.
    - {b Drain}: EOF (or a [stop] flag flipped by SIGTERM/SIGINT)
      stops reading, finishes every admitted request, flushes its
      response, joins the domains and returns — no request is
      half-answered.
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
      request runs, so [serve.request] / [pipeline.request] log lines
      join to response lines exactly.

    Observability ([serve.*], via {!Obs}): counters [serve.requests],
    [serve.responses], [serve.batches], [serve.errors],
    [serve.parse_errors], [serve.deadline_exceeded],
    [serve.rejected_overloaded], [serve.connections] (total accepted),
    high-watermarks
    [serve.batch_size_max] / [serve.queue_depth_max] / [serve.pool_jobs],
    [serve.domains_spawned] (the loop's [jobs - 1] domains, counted
    once at start), gauges [serve.queue_depth] (the requests waiting
    for a domain right now) with its per-class split
    [serve.queue_depth.analytic] / [serve.queue_depth.simulation],
    [serve.inflight] (requests executing right now) and
    [serve.open_connections] (socket clients currently connected), and
    timers (with latency histograms) [serve.request] and the per-class
    latency histograms [serve.request.analytic] /
    [serve.request.simulation]. A "batch" ([serve.batches]) is one
    poller turn that read at least one line. Each request is a
    [serve.request] trace span on the lane of the domain that ran it.
    Structured log events (when a {!Obs.Log} sink is set):
    [serve.request] (info, per request: id/op/status/ms, written just
    before the response line, so log order = response order),
    [serve.slow_request] (warn, see [slow_s]), [serve.overloaded]
    (warn, per rejection), [serve.listen] / [serve.connection] /
    [serve.disconnect] (info, socket connection lifecycle). *)

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
      (** persistent domains that run requests, the caller's included,
          resolved {e once} at start (never re-read from
          [PROJTILE_JOBS] per request) *)
  queue_capacity : int;
      (** per request class: max requests waiting for a domain. Over
          one pipe each line is read by the domain that will run it, so
          the pipe never queues more than one line and never answers
          [overloaded]. *)
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
(** The transport-agnostic entry: the dispatch loop of {!run_daemon}
    with no listener and one connection, which pulls lines with [next]
    and pushes response lines (no trailing newline) with [emit]. Only
    the domain holding the poller role calls [next], always with
    [~block:true]; it may return [Wait] when interrupted or after
    waiting a while (the loop re-checks [stop] and calls again). [emit]
    is called under the connection's lock, one response at a time, in
    arrival order; an [emit] raising [Unix.Unix_error] marks the
    connection dead, and later responses are dropped. Returns once the
    connection is finished ([Eof] read or dead) or [stop] reads true,
    with every line read answered and the domains joined. *)

(** {1 Transports} *)

val reader_of_fd : Unix.file_descr -> block:bool -> event
(** Buffered line reader over a file descriptor. Reads wait in [select]:
    a non-blocking probe not at all, a blocking read at most 0.25 s, and
    both yield [Wait] when nothing arrived or [EINTR] cut the wait, so
    signal flags get checked.
    A line is buffered up to 1 MiB (1,048,576 bytes, newline excluded);
    past that the reader yields [Oversized] once and drops the rest of
    the line up to its newline, so later lines are still served. *)

val run_pipe : ?stop:(unit -> bool) -> config -> unit
(** {!serve} over stdin -> stdout until EOF. Responses are written
    line-by-line, unbuffered. A broken stdout ([EPIPE]; callers should
    ignore [SIGPIPE]) drains and returns. *)

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

(** The [tilings serve] daemon: a long-running batching front-end over
    the engine pipeline.

    Why a daemon: every one-shot CLI invocation pays process startup and
    a cold memo cache, but the expensive exact-LP stages depend only on
    the canonical [(spec, beta, m)] point — across requests the shared
    {!Memo} tables amortize them, and concurrently-arriving requests
    batch into one {!Pool}-parallel sweep.

    Production semantics:
    - {b Classed admission}: requests are decoded and classified at
      admission — [Analytic] (no simulations: plan/LP/closed-form, the
      sub-millisecond class; compile requests too) or [Simulation]
      (carries simulated executions) — and each class has its own
      [queue_capacity] seats per batch cycle, so a flood of simulation
      work cannot crowd analytic requests out of admission (or vice
      versa). Lines beyond a class's seats are answered with a
      structured [overloaded] error instead of buffered without bound
      (anything not yet read stays in the OS pipe buffer — that is the
      transport's own backpressure). Inside a batch the {!Pool}
      scheduler serves all analytic work ahead of simulation tails.
    - {b Deadlines}: a request's [deadline_ms] budget starts at
      admission (queue wait counts). Expiry returns a [deadline_exceeded]
      response, checked at pipeline stage boundaries
      ({!Pipeline.run_checked}); a [deadline_ms] of 0 fails before any
      work — the liveness probe.
    - {b Ordering}: one response line per request line, in arrival
      order, errors included.
    - {b Drain}: EOF (or a [stop] flag flipped by SIGTERM/SIGINT)
      finishes the admitted batch, flushes its responses, and returns —
      no request is half-answered.
    - {b Isolation}: a malformed or failing request yields an error
      response; the loop keeps serving.
    - {b Plan warm-up}: the daemon runs the pipeline in
      [Plan_deferred] mode (set by the CLI): the first batch touching a
      new kernel shape is answered on the LP path, then — after its
      responses are flushed — the shape's {!Tiling_plan} compiles on the
      pool and installs, so subsequent batches are plan-served with zero
      simplex solves. [--plans FILE] preloads compiled plans at startup
      and skips even the first LP round for those shapes.

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
    [serve.plan_compiles], high-watermarks
    [serve.batch_size_max] / [serve.queue_depth_max] / [serve.pool_jobs],
    gauges [serve.queue_depth] (depth of the batch cycle being worked,
    0 between batches) with its per-class split
    [serve.queue_depth.analytic] / [serve.queue_depth.simulation],
    [serve.inflight] (requests executing on pool domains right now) and
    [serve.open_connections] (clients currently connected), and timers
    (with latency histograms) [serve.batch] / [serve.request] plus the
    per-class latency histograms [serve.request.analytic] /
    [serve.request.simulation]. Each batch is a [serve.batch] trace
    span with one [serve.request] child per request. Structured log
    events (when a {!Obs.Log} sink is set): [serve.request] (info, per
    request: id/op/status/ms, written just before the response line, so
    log order = response order), [serve.slow_request] (warn, see
    [slow_s]), [serve.overloaded] (warn, per rejection), [serve.batch]
    (debug, per cycle), [serve.listen] / [serve.connection] /
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
      (** pool width for batch execution, resolved {e once} at daemon
          start (never re-read from [PROJTILE_JOBS] per request) *)
  queue_capacity : int;  (** max requests admitted per batch cycle *)
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

    Connections are served {e concurrently} from one loop: each batch
    cycle drains at most one line per connection per round (rotating
    round-robin start, so no connection is structurally first) until
    nothing more is immediately readable, runs the admitted batch on
    the pool, then writes each response back to the connection its
    request came from, in that connection's arrival order. Every
    connection gets its own mint session ([srv-1], [srv-2], ... each),
    its own correlation-id scope, and per-response bytes identical to
    what a one-shot pipe session would produce for the same lines.
    EOF from a client closes its connection after its admitted
    requests are answered; a client that vanishes mid-write is dropped
    without disturbing the others. [stop] is polled between batch
    cycles. Callers should ignore [SIGPIPE] so a vanishing client
    surfaces as [EPIPE] (handled per connection) rather than killing
    the daemon. *)

(** Deterministic parallel map over OCaml 5 domains.

    Independent sweep points (per-(M, schedule, policy) simulations,
    per-kernel LP solves) are embarrassingly parallel; this module fans
    them out over a small pool of domains while keeping the result order
    identical to the sequential path — element [i] of the result always
    comes from element [i] of the input, so parallel and sequential runs
    produce byte-identical reports.

    {b Scheduling.} A plain ordered map: workers claim items in index
    order off one atomic counter. There are no classes and no
    priorities — the class-aware claim policy (analytic before
    simulation) lives in the serve loop ([Serve]), the one place that
    admits mixed traffic. Every caller of this module (sweeps,
    profiling, partition validation, the bench) only needs its results
    back in input order.

    The pool size defaults to {!Domain.recommended_domain_count} and can
    be overridden with the [PROJTILE_JOBS] environment variable (or the
    [?jobs] argument, which wins). [jobs <= 1] degrades to a plain
    sequential map with no domains spawned. Each parallel call spawns
    its [jobs - 1] workers and joins them before returning.

    Observability: besides the busy/idle/wall timers, every item records
    its submit-to-start latency in ["pool.queue_wait"] and its runtime in
    ["pool.task"]. ["pool.domains_spawned"] counts spawned workers, and
    with {!Obs.Trace} enabled each item is a ["pool.task"] span tagged
    with the item index on the executing worker's lane (worker 0 is the
    caller's domain; each spawned worker is ["worker-N"], N counted
    across the process, so a trace that spans several calls never
    repeats a lane name). *)

(** A two-stage result. Nothing in this module schedules it: it remains
    as the return type of {!Pipeline.run_staged}, whose split the
    repository benchmark's in-process replay times stage by stage. *)
type 'b staged =
  | Done of 'b  (** the item finished in its first stage *)
  | More of (unit -> 'b)  (** cheap stage finished; the thunk is the heavy tail *)

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

val map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    applications concurrently, claimed in index order. Results keep
    input order. If any application raises, the first (lowest-index)
    exception is re-raised after all domains have joined; on the
    sequential path ([jobs <= 1]) the first failure propagates at
    once. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List version of {!map}. *)

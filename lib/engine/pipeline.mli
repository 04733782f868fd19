(** The unified analysis pipeline.

    Every consumer of this repository runs the same sequence: take a
    projective loop nest, solve the bounded tiling LP (5.1), derive the
    lower bound [M^k_hat] and the rectangular tile, then optionally
    validate by cache simulation. This module is that sequence as one
    typed function: a {!request} in, a {!Report.t} out, with the
    expensive exact-LP stages memoized ({!Memo}) and independent sweep
    points parallelized over domains ({!Pool}). *)

type schedule_choice =
  | Optimal  (** shared-cache communication-optimal tile, {!Tiling.optimal_shared} *)
  | Classic  (** clamped large-bounds cube, {!Schedules.classic_tile} *)
  | Untiled
  | Permuted of int array
  | Fixed of int array  (** a caller-supplied tile *)

val schedule_names : (string * schedule_choice) list
(** The wire and command-line names of the named schedules
    ([optimal], [classic], [untiled]), in the order error messages
    list them. The one table the CLI and the serve decoder share. *)

type sim_request = {
  schedule : schedule_choice;
  policy : Policy.t;
  line_words : int;
}

val sim : ?policy:Policy.t -> ?line_words:int -> schedule_choice -> sim_request
(** Defaults: [Lru], 1-word lines. *)

type request = {
  rspec : Spec.t;
  rm : int;  (** fast-memory size in words *)
  rsims : sim_request list;  (** simulations to run; may be empty *)
  rshared : bool;  (** also compute the shared-cache tile *)
}

val request : ?sims:sim_request list -> ?shared:bool -> Spec.t -> m:int -> request
(** Defaults: no simulations, [shared = false]. The shared tile is
    computed anyway when some simulation asks for [Optimal]. *)

val run_checked :
  ?deadline:float -> request -> (Report.t, Engine_error.t) result
(** Execute one request without raising. Analysis (LP, bound, tile) is
    served from the memo cache when an equivalent [(spec, beta, m)] has
    been analyzed before; simulations always execute.

    Up-front validation: [Error Cache_too_small] when [m] is below
    [max 2 (num_arrays)] (the bound needs 2 words, the tile one word per
    array), [Error Kernel_too_large] when a simulation is requested and
    the exact iteration count exceeds {!sim_iteration_limit} — or, for
    an [Opt] simulation, [Executor.opt_trace_limit / accesses per point]
    (OPT materializes its whole trace). Stage
    failures ([Invalid_argument]/[Failure] from the analysis stack) come
    back as [Error Invalid_spec]/[Error Internal]; asynchronous
    exceptions still propagate.

    [deadline] is an absolute [Unix.gettimeofday] instant. It is tested
    cooperatively at stage boundaries (before the analysis, the shared
    tile and each simulation), so an expired request returns
    [Error (Deadline_exceeded _)] having overshot by at most one stage —
    there is no preemption. A deadline already in the past fails before
    any work. *)

val run_staged :
  ?deadline:float -> request -> (Report.t, Engine_error.t) result Pool.staged
(** {!run_checked} split at the analysis-vs-simulate boundary. The first
    stage runs the validation and the memoized analysis; a request with
    no simulations (or that fails early) finishes there as [Done]. A
    simulation-carrying request returns [More] whose thunk runs the
    shared-tile search and every simulation. Nothing in the engine
    re-queues that thunk: forcing the staged value is exactly
    [run_checked] (same results, same error mapping, same memo effects),
    and the split stays only so the repository benchmark's in-process
    replay can time the two stages apart. *)

val sweep_checked :
  ?jobs:int -> ?deadline:float -> request list ->
  (Report.t, Engine_error.t) result list
(** {!run_checked} over {!Pool.map_list}: one [result] per request,
    input order, failures isolated per element (one bad request never
    poisons the batch). Requests are claimed in input order whatever
    their class — the class-aware order is the serve loop's — and every
    report is byte-identical (under {!Report.pp}) to what
    [List.map run_checked] produces, whatever [jobs] is. The one
    [deadline] applies to every request; callers needing per-request
    deadlines map {!run_checked} over {!Pool} directly. *)

val sim_iteration_limit : int
(** Iteration-count ceiling above which simulation requests are refused
    ([2 * 10^7] — the cache simulator touches every iteration). *)

(** {1 The tiling-plan fast path}

    A compiled {!Tiling_plan.t} answers every [(beta, m)] request for
    its kernel {e shape} with pure rational arithmetic — zero simplex
    solves. The analysis is plan-first: the first request for a shape
    compiles its plan (timed under [plan.compile]) and is answered from
    it, like every later request for that shape (Obs counters
    [memo.plan.hits]/[memo.plan.misses]). The plan returns the
    lexicographically maximal optimum, exactly what
    {!Tiling.solve_lp_lexmax} returns. Only a shape whose compilation is
    refused ([Shape_too_large]) is answered by that LP, memoized per
    [(spec, beta)]; each such answer counts one [plan.lp_fallbacks]. *)

val plan_of : Spec.t -> (Tiling_plan.t, Engine_error.t) result
(** The shape's plan, compiling and installing it on first use.
    [Error (Shape_too_large _)] when the shape exceeds the enumeration
    budget (the failure is negative-cached: analysis requests for the
    shape keep working on the LP path). *)

val install_plan : Tiling_plan.t -> unit
(** Seed the plan cache (e.g. from a [--plans] file at serve startup).
    First writer wins; installing never evicts. *)

type plan_mode = Plan_deferred  (** Kept only for perfbench/replay.ml; no effect. *)

val set_plan_mode : plan_mode -> unit
(** Kept only for perfbench/replay.ml; no effect. *)

val compile_pending : ?jobs:int -> unit -> int
(** Kept only for perfbench/replay.ml; no effect: returns 0. *)

val pending_count : unit -> int
(** Kept only for perfbench/replay.ml; no effect: returns 0. *)

(** {1 Memoized stages, usable a la carte} *)

val solve_lp : Spec.t -> beta:Rat.t array -> Tiling.lp_solution
(** The canonical (lex-max) optimum for this [(spec, beta)]: plan-served,
    or by the LP when the shape's plan compilation is refused. *)

val lower_bound : Spec.t -> m:int -> Lower_bound.bound
(** Priced by the path that served [lambda]: {!Tiling_plan.value} (no
    simplex solve) or {!Tiling.lp_value}. *)

val tile : Spec.t -> m:int -> int array
(** Integer tile under the paper's per-array-M model (memoized). *)

val tile_shared : Spec.t -> m:int -> int array
(** Shared-cache tile (memoized — the search is the most expensive
    non-LP stage). *)

val simulate : Spec.t -> m:int -> sim_request -> Report.sim

(** {1 Distributed-memory partitioning}

    The Section-7 scenario class: split the iteration space over [p]
    processors with [m_local] words of fast memory each. Results are
    memoized per canonical [(spec, p, m_local, net)] key
    ([memo.partition.*] counters); each solve is timed under
    [partition.solve] and feeds the [partition.grids_enumerated] /
    [partition.pruned] counters. *)

val partition_checked :
  ?deadline:float ->
  ?budget:int ->
  Spec.t ->
  p:int ->
  m_local:int ->
  net:Partition_solve.network ->
  (Partition_solve.solution, Engine_error.t) result
(** Optimal processor grid + per-processor tile via
    {!Partition_solve.solve}, without raising. Up-front validation:
    [Error Invalid_request] for [p < 1], [Error Cache_too_small] when
    [m_local] cannot hold one word per array, and
    [Error Network_model_invalid] for negative [alpha]/[beta].
    [Error (Unfactorable_p _)] when [p] has no grid factorization within
    the loop bounds, [Error (Shape_too_large _)] when grid enumeration
    exceeds [budget] ({!Partition.grids}). [deadline] as in
    {!run_checked}. *)

type partition_group = {
  pg_block : int array;  (** the group's per-processor block shape *)
  pg_procs : int;  (** processors owning a block of this shape *)
  pg_words : int;  (** simulated distinct words for this block shape *)
}

type partition_validation = {
  pv_groups : partition_group list;
  pv_max_words : Bigint.t;  (** largest simulated per-processor volume *)
  pv_matches : bool;
      (** [pv_max_words] equals the solution's [gather_words] exactly *)
}

val partition_validate :
  ?jobs:int ->
  Spec.t ->
  Partition_solve.solution ->
  (partition_validation, Engine_error.t) result
(** Execute the P-processor claim on the {!Pool}: one domain per
    distinct block-shape group ({!Comm_model.block_groups} — congruent
    blocks share one simulation), counting the distinct words each
    block's sub-nest touches ({!Comm_model.simulated_block}). The
    validation passes ([pv_matches]) iff the largest simulated volume
    equals the modeled gather footprint {e exactly}.
    [Error Kernel_too_large] when any block exceeds
    {!sim_iteration_limit}. *)

(** {1 Multi-level hierarchies} *)

type hierarchy_report = {
  hspec : Spec.t;
  hcapacities : int array;
  htiles : int array list;  (** innermost first, from {!Tiling.nested} *)
  hresult : Executor.hierarchy_result;
}

val hierarchy : ?policy:Policy.t -> Spec.t -> capacities:int array -> hierarchy_report
(** Nested tiling sized for each level, executed against the simulated
    hierarchy. Capacities fastest-first, strictly increasing.
    @raise Engine_error.Error [(Kernel_too_large _)] when the iteration
    count exceeds {!sim_iteration_limit}, by the rule {!run_checked}
    applies to simulations. *)

(** {1 Cache introspection} *)

val cache_stats : unit -> int * int
(** Total (hits, misses) across the engine's memo tables. *)

val reset_caches : unit -> unit

(** {1 Cache persistence}

    The durable memo tables — shared tiles, nested tilings and compiled
    plans — serialize to a versioned JSON snapshot so a restarted daemon
    or a fresh replica boots warm ({!Cache_store} handles the file I/O;
    the serve CLI's [--cache-dir] wires both ends). The LP memo is not
    written: a plan answers LP (5.1) for every point of its shape with
    no solve. Entries go out in sorted key order, so
    [snapshot -> restore -> snapshot] is byte-identical.

    Restore recompiles and checks rather than trusts: each plan is
    recompiled from its ["shape"] key ({!Tiling_plan.of_json}), and a
    tile is kept only if its key is exactly the one this engine would
    look up for the spec and capacities it names ({!Memo.spec_of_key}),
    and it fits them: [d] entries, [1 <= t_i <= L_i], total footprint
    within the capacity, nested levels non-decreasing outward. *)

val cache_snapshot : ?plans:Tiling_plan.t list -> unit -> string
(** The current cache contents as one versioned JSON document
    ([{"v":1, "shared":[...], "nested":[...], "plans":[...]}]; plans
    written in full by {!Tiling_plan.to_json}).
    With [plans], the plan bundle instead: just those plans, in the
    given order ([{"v":1,"plans":[...]}], what [tilings compile] writes
    and [tilings serve --plans] reads back through {!cache_restore}). *)

val cache_restore : string -> (int * int, string) result
(** Load a snapshot into the (typically empty) caches:
    [Ok (loaded, rejected)] on success, where [rejected] counts
    malformed entries that were skipped — corruption is tolerated
    per-entry (a damaged snapshot means a colder boot, never a dead
    process); existing entries are never overwritten. Sections this
    build does not read (["lp"] and ["basis"] in older snapshots) are
    ignored and count as neither. [Error _] only for an unparseable
    document or a version mismatch. *)

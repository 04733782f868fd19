(** Facade over the unified analysis pipeline.

    [Engine] is what the CLI, the benchmark harness and the examples
    compile against: one-call helpers wrapping {!Pipeline} (typed
    requests, memoized LP/analysis stages, domain-parallel sweeps) and
    {!Report} (text/JSON rendering). See those modules for the knobs. *)

type report = Report.t
type sim = Report.sim
type schedule_choice = Pipeline.schedule_choice =
  | Optimal
  | Classic
  | Untiled
  | Permuted of int array
  | Fixed of int array

val analyze :
  ?sims:Pipeline.sim_request list -> ?shared:bool -> Spec.t -> m:int -> report
(** Full pipeline for one kernel at one cache size.
    @raise Engine_error.Error on an invalid request — this is the thin
    raising wrapper over {!analyze_checked}; prefer the checked variant
    in code that must not die. *)

val analyze_checked :
  ?sims:Pipeline.sim_request list ->
  ?shared:bool ->
  ?deadline:float ->
  Spec.t ->
  m:int ->
  (report, Engine_error.t) result
(** Non-raising {!analyze} with an optional absolute deadline; see
    {!Pipeline.run_checked} for validation and deadline semantics. *)

val run_checked :
  ?deadline:float -> Pipeline.request -> (report, Engine_error.t) result
(** Re-export of {!Pipeline.run_checked}. *)

val sweep : ?jobs:int -> Pipeline.request list -> report list
(** Parallel sweep over independent requests; deterministic order.
    @raise Engine_error.Error on the first failing request. *)

val sweep_checked :
  ?jobs:int -> ?coarse:bool -> ?deadline:float -> Pipeline.request list ->
  (report, Engine_error.t) result list
(** Re-export of {!Pipeline.sweep_checked}: per-request results in input
    order, one bad request never poisons the batch; analytic requests
    are scheduled ahead of simulation tails ([~coarse:true] restores
    the class-blind pre-split scheduler for A/B measurement). *)

val partition_checked :
  ?deadline:float ->
  ?budget:int ->
  Spec.t ->
  p:int ->
  m_local:int ->
  net:Partition_solve.network ->
  (Partition_solve.solution, Engine_error.t) result
(** Re-export of {!Pipeline.partition_checked}: the distributed-memory
    partition solver as a checked request. *)

val partition_validate :
  ?jobs:int ->
  Spec.t ->
  Partition_solve.solution ->
  (Pipeline.partition_validation, Engine_error.t) result
(** Re-export of {!Pipeline.partition_validate}: Pool-simulate the
    P-processor schedule (one domain per block-shape group) and check
    the modeled words exactly. *)

val sweep_grid :
  ?jobs:int ->
  ?sims:Pipeline.sim_request list ->
  ?shared:bool ->
  Spec.t list ->
  ms:int list ->
  report list
(** Cartesian product of kernels and cache sizes, kernels outermost. *)

val simulate :
  ?policy:Policy.t -> ?line_words:int -> Spec.t -> m:int -> schedule_choice -> sim
(** One simulation, with the schedule resolved by the engine (memoized
    tiles). *)

val words_moved :
  ?policy:Policy.t -> ?line_words:int -> Spec.t -> m:int -> schedule_choice -> int
(** [words_moved] of {!simulate} — the one-number version used all over
    the benchmark tables. *)

val lower_bound : Spec.t -> m:int -> Lower_bound.bound
val solve_lp : Spec.t -> beta:Rat.t array -> Tiling.lp_solution
val tile : Spec.t -> m:int -> int array
val tile_shared : Spec.t -> m:int -> int array

val hierarchy :
  ?policy:Policy.t -> Spec.t -> capacities:int array -> Pipeline.hierarchy_report

val cache_stats : unit -> int * int
val reset_caches : unit -> unit

val cache_snapshot : unit -> string
val cache_restore : string -> (int * int, string) result
(** Re-exports of the {!Pipeline} cache persistence layer (see
    {!Cache_store} for the file-backed form). *)

(** {1 Tiling plans}

    Re-exports of the {!Pipeline} plan layer: per-shape compiled answer
    tables that remove simplex solves from repeat-shape workloads. *)

type plan_mode = Pipeline.plan_mode = Plan_inline | Plan_deferred

val set_plan_mode : plan_mode -> unit
val plan_mode : unit -> plan_mode
val plan_of : Spec.t -> (Tiling_plan.t, Engine_error.t) result
val install_plan : Tiling_plan.t -> unit
val compile_pending : ?jobs:int -> unit -> int

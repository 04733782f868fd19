type schedule_choice =
  | Optimal
  | Classic
  | Untiled
  | Permuted of int array
  | Fixed of int array

let schedule_names = [ ("optimal", Optimal); ("classic", Classic); ("untiled", Untiled) ]

type sim_request = { schedule : schedule_choice; policy : Policy.t; line_words : int }

let sim ?(policy = Policy.Lru) ?(line_words = 1) schedule = { schedule; policy; line_words }

type request = { rspec : Spec.t; rm : int; rsims : sim_request list; rshared : bool }

let request ?(sims = []) ?(shared = false) spec ~m =
  { rspec = spec; rm = m; rsims = sims; rshared = shared }

(* ------------------------------------------------------------------ *)
(* Memoized stages                                                    *)
(* ------------------------------------------------------------------ *)

(* The analysis of a request depends only on the canonical (spec, beta)
   pair plus the cache size m (beta alone does not pin down integer tile
   rounding), so that is the cache key throughout. *)

type analysis = {
  a_beta : Rat.t array;
  a_bound : Lower_bound.bound;
  a_lp : Tiling.lp_solution;
  a_tile : int array;
  a_volume : int;
  a_max_footprint : int;
  a_tiles : int;
  a_traffic : Tiling.traffic;
  a_attainment : float;
}

let lp_cache : Tiling.lp_solution Memo.t = Memo.create ~name:"lp" ()
let analysis_cache : analysis Memo.t = Memo.create ~name:"analysis" ()
let shared_cache : int array Memo.t = Memo.create ~name:"shared" ()

let t_lp = Obs.timer "pipeline.solve_lp"
let t_lower = Obs.timer "pipeline.lower_bound"
let t_tile = Obs.timer "pipeline.tile"

(* Stage instrumentation: charge the timer (and its histogram) and, when
   tracing is on, emit a span on the current domain's lane. Memoized
   stages are timed around the cache lookup too, so hit latency is the
   distribution's fast mode and misses are its tail. *)
let staged name tm f = Obs.Trace.with_span name (fun () -> Obs.time tm f)

(* ------------------------------------------------------------------ *)
(* The tiling-plan fast path                                          *)
(* ------------------------------------------------------------------ *)

(* A compiled Tiling_plan answers every (beta, m) for its shape with
   pure rational arithmetic, so the plan is the analysis: the first
   request for a shape compiles its plan and every request, that first
   one included, is answered from it without touching the LP stage. The
   plan returns the lexicographically maximal optimum, exactly the one
   Tiling.solve_lp_lexmax returns. Shapes whose plan compilation is
   refused (enumeration budget) are negative-cached and permanently
   served by the LP path. *)

type plan_entry = Plan_ready of Tiling_plan.t | Plan_failed of string

let plan_cache : plan_entry Memo.t = Memo.create ~name:"plan" ()
let t_plan_compile = Obs.timer "plan.compile"
let c_plan_fallbacks = Obs.counter "plan.lp_fallbacks"

(* Kept only for perfbench/replay.ml; no effect. *)
type plan_mode = Plan_deferred

let set_plan_mode (_ : plan_mode) = ()
let compile_pending ?jobs:_ () = 0
let pending_count () = 0

let compile_entry spec =
  match staged "plan.compile" t_plan_compile (fun () -> Tiling_plan.compile spec) with
  | p -> Plan_ready p
  | exception Invalid_argument msg -> Plan_failed msg

let install_plan p = Memo.add plan_cache (Tiling_plan.key p) (Plan_ready p)

let plan_of spec =
  match Memo.find_or_add plan_cache (Memo.key_of_shape spec) (fun () -> compile_entry spec) with
  | Plan_ready p -> Ok p
  | Plan_failed msg -> Error (Engine_error.Shape_too_large { detail = msg })

(* The canonical optimum plus the pricing function the bound reads: the
   plan's vertex minimum, or a certified LP for a refused shape. *)
let priced_lp spec ~beta =
  staged "pipeline.solve_lp" t_lp (fun () ->
    match plan_of spec with
    | Ok plan ->
      let lambda, value = Tiling_plan.answer plan ~beta in
      ( { Tiling.lambda; value; dual = Tiling_plan.dual plan spec ~beta },
        fun beta -> Tiling_plan.value plan ~beta )
    | Error _ ->
      Obs.incr c_plan_fallbacks;
      ( Memo.find_or_add lp_cache (Memo.key_of_spec_beta spec ~beta) (fun () ->
          Tiling.solve_lp_lexmax spec ~beta),
        fun beta -> Tiling.lp_value spec ~beta ))

let solve_lp spec ~beta = fst (priced_lp spec ~beta)

let key_of_request spec ~m =
  let beta = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
  (beta, Memo.key_of_spec_beta spec ~beta ^ ";m=" ^ string_of_int m)

let compute_analysis spec ~m ~beta =
  let ({ Tiling.lambda; value = k_hat; _ } as lp), price = priced_lp spec ~beta in
  let bound =
    staged "pipeline.lower_bound" t_lower (fun () ->
      Lower_bound.communication spec ~m ~beta ~price ~lambda ~k_hat)
  in
  let tile = staged "pipeline.tile" t_tile (fun () -> Tiling.of_lambda spec ~m lambda) in
  let traffic = Tiling.analytic_traffic spec tile in
  let moved = traffic.Tiling.reads +. traffic.Tiling.writes in
  {
    a_beta = beta;
    a_bound = bound;
    a_lp = lp;
    a_tile = tile;
    a_volume = Tiling.volume tile;
    a_max_footprint = Tiling.max_footprint spec tile;
    a_tiles = Tiling.num_tiles spec tile;
    a_traffic = traffic;
    a_attainment =
      (if bound.Lower_bound.words > 0.0 then moved /. bound.Lower_bound.words else nan);
  }

(* Returns the analysis plus whether it came out of the cache. *)
let analysis spec ~m =
  let beta, key = key_of_request spec ~m in
  match Memo.find_opt analysis_cache key with
  | Some a -> (a, true)
  | None ->
    let a = compute_analysis spec ~m ~beta in
    Memo.add analysis_cache key a;
    (a, false)

let lower_bound spec ~m = (fst (analysis spec ~m)).a_bound
let tile spec ~m = (fst (analysis spec ~m)).a_tile

let tile_shared spec ~m =
  Obs.Trace.with_span "pipeline.tile_shared" (fun () ->
    let _, key = key_of_request spec ~m in
    Memo.find_or_add shared_cache key (fun () -> Tiling.optimal_shared spec ~m))

let schedule_of spec ~m = function
  | Optimal -> Schedules.Tiled (tile_shared spec ~m)
  | Classic -> Schedules.Tiled (Schedules.classic_tile spec ~m)
  | Untiled -> Schedules.Untiled
  | Permuted p -> Schedules.Permuted p
  | Fixed b -> Schedules.Tiled b

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

let simulate spec ~m (s : sim_request) : Report.sim =
  Obs.Trace.with_span "pipeline.simulate" (fun () ->
  let sched = schedule_of spec ~m s.schedule in
  let r = Executor.run ~line_words:s.line_words ~policy:s.policy spec ~schedule:sched ~capacity:m in
  let bound = lower_bound spec ~m in
  {
    Report.label = Schedules.description spec sched;
    schedule = sched;
    policy = s.policy;
    line_words = s.line_words;
    stats = r.Executor.stats;
    words_moved = r.Executor.words_moved;
    ratio =
      (if bound.Lower_bound.words > 0.0 then
         float_of_int r.Executor.words_moved /. bound.Lower_bound.words
       else nan);
  })

let now = Unix.gettimeofday

let c_requests = Obs.counter "pipeline.requests"
let c_simulations = Obs.counter "pipeline.simulations"
let t_analysis = Obs.timer "pipeline.analysis"
let t_shared = Obs.timer "pipeline.shared_tile"
let t_simulate = Obs.timer "pipeline.simulate"

(* Run [f], charge its duration to [tm] (and emit a [span] when tracing),
   and also return the duration so the per-report [timings] list keeps
   its existing shape. *)
let timed span tm f =
  Obs.Trace.with_span span (fun () ->
    let t0 = now () in
    let v = f () in
    let dt = now () -. t0 in
    Obs.add_seconds tm dt;
    (v, dt))

(* Cooperative deadlines: the checked entry points thread an absolute
   wall-clock deadline through the stage sequence; it is tested at stage
   boundaries (cheap, no preemption), so a request can overshoot by at
   most one stage.  [Deadline_hit] never escapes [run_checked]. *)
exception Deadline_hit of string

let guard deadline stage =
  match deadline with
  | Some t when Unix.gettimeofday () >= t -> raise (Deadline_hit stage)
  | _ -> ()

(* The cheap half of a request: the memoized analysis (LP/plan lookup,
   lower bound, tile). On the pool this runs at the request's submitted
   class; for an analytic request it is the whole request. *)
let analysis_half ?deadline req =
  let spec = req.rspec and m = req.rm in
  Obs.incr c_requests;
  Obs.incr ~by:(List.length req.rsims) c_simulations;
  guard deadline "analysis";
  timed "pipeline.analysis" t_analysis (fun () -> analysis spec ~m)

(* The heavy half: the shared-tile search (when wanted) and every cache
   simulation. For simulation-carrying requests this is the [More]
   continuation that re-queues at Simulation class. *)
let simulate_half ?deadline req =
  let spec = req.rspec and m = req.rm in
  guard deadline "shared_tile";
  let shared, d_shared =
    timed "pipeline.shared_tile" t_shared (fun () ->
      let want_shared =
        req.rshared || List.exists (fun s -> s.schedule = Optimal) req.rsims
      in
      if want_shared then Some (tile_shared spec ~m) else None)
  in
  let sims, d_simulate =
    timed "pipeline.simulate_stage" t_simulate (fun () ->
      List.map
        (fun s ->
          guard deadline "simulate";
          simulate spec ~m s)
        req.rsims)
  in
  (shared, d_shared, sims, d_simulate)

let assemble req ((a, from_cache), d_analysis) (shared, d_shared, sims, d_simulate) =
  let spec = req.rspec and m = req.rm in
  (* Stage-level debug event; the ambient correlation id (set by serve
     around each request) attributes it to the request that ran us. The
     is_enabled guard keeps field construction off the default path. *)
  if Obs.Log.is_enabled Obs.Log.Debug then
    Obs.Log.debug "pipeline.request"
      [
        ("kernel", `S spec.Spec.name);
        ("m", `I m);
        ("sims", `I (List.length req.rsims));
        ("from_cache", `B from_cache);
        ("analysis_ms", `F (1e3 *. d_analysis));
        ("shared_tile_ms", `F (1e3 *. d_shared));
        ("simulate_ms", `F (1e3 *. d_simulate));
      ];
  {
    Report.spec;
    m;
    beta = a.a_beta;
    bound = a.a_bound;
    lp = a.a_lp;
    tile = a.a_tile;
    tile_shared = shared;
    tile_volume = a.a_volume;
    tile_max_footprint = a.a_max_footprint;
    tiles = a.a_tiles;
    traffic = a.a_traffic;
    attainment = a.a_attainment;
    sims;
    timings =
      [ ("analysis", d_analysis); ("shared_tile", d_shared); ("simulate", d_simulate) ];
    from_cache;
  }

let sim_iteration_limit = 20_000_000

(* Exact comparison: the native iteration product wraps for 2^21-cubed
   bounds and would sail straight past a native-int guard. *)
let too_large spec =
  let n = Spec.iteration_count_big spec in
  if Bigint.compare n (Bigint.of_int sim_iteration_limit) > 0 then
    Some
      (Engine_error.Kernel_too_large
         { iterations = Bigint.to_string n; limit = sim_iteration_limit })
  else None

(* OPT materializes the whole trace before simulating it, so its ceiling
   is on accesses, stated as the iterations that fit in them. *)
let opt_too_large spec =
  let limit = Executor.opt_trace_limit / Executor.accesses_per_point spec in
  let n = Spec.iteration_count_big spec in
  if Bigint.compare n (Bigint.of_int limit) > 0 then
    Some (Engine_error.Kernel_too_large { iterations = Bigint.to_string n; limit })
  else None

let validate req =
  let spec = req.rspec and m = req.rm in
  let min_words = max 2 (Spec.num_arrays spec) in
  if m < min_words then Some (Engine_error.Cache_too_small { m; min_words })
  else if req.rsims = [] then None
  else
    match too_large spec with
    | Some _ as e -> e
    | None ->
      if List.exists (fun s -> s.policy = Policy.Opt) req.rsims then opt_too_large spec
      else None

let catch_errors f =
  match f () with
  | r -> Ok r
  | exception Deadline_hit stage -> Error (Engine_error.Deadline_exceeded { stage })
  | exception e -> (
    match Engine_error.of_exn e with Some t -> Error t | None -> raise e)

let run_staged ?deadline req =
  match validate req with
  | Some e -> Pool.Done (Error e)
  | None ->
    if req.rsims = [] then
      Pool.Done
        (catch_errors (fun () ->
           let first = analysis_half ?deadline req in
           assemble req first (simulate_half ?deadline req)))
    else (
      match catch_errors (fun () -> analysis_half ?deadline req) with
      | Error e -> Pool.Done (Error e)
      | Ok first ->
        Pool.More
          (fun () ->
            catch_errors (fun () -> assemble req first (simulate_half ?deadline req))))

let run_checked ?deadline req =
  match run_staged ?deadline req with Pool.Done r -> r | Pool.More f -> f ()

let sweep_checked ?jobs ?deadline reqs = Pool.map_list ?jobs (run_checked ?deadline) reqs

(* ------------------------------------------------------------------ *)
(* Distributed-memory partitioning                                    *)
(* ------------------------------------------------------------------ *)

(* Partition solutions depend on the canonical spec plus (p, M_local,
   network model); all four land in the memo key. The network model's
   canonical short form (Partition_solve.net_to_key) renders rationals
   exactly, so distinct alpha/beta never alias. *)
let partition_cache : Partition_solve.solution Memo.t = Memo.create ~name:"partition" ()

let c_part_enumerated = Obs.counter "partition.grids_enumerated"
let c_part_pruned = Obs.counter "partition.pruned"
let t_partition = Obs.timer "partition.solve"

let key_of_partition spec ~p ~m_local ~net =
  Printf.sprintf "%s;p=%d;M=%d;net=%s" (Memo.key_of_spec spec) p m_local
    (Partition_solve.net_to_key net)

let validate_net = function
  | Partition_solve.Words -> None
  | Partition_solve.Alpha_beta { alpha; beta } ->
    if Rat.sign alpha < 0 then
      Some
        (Engine_error.Network_model_invalid
           (Printf.sprintf "alpha must be non-negative (got %s)" (Rat.to_string alpha)))
    else if Rat.sign beta < 0 then
      Some
        (Engine_error.Network_model_invalid
           (Printf.sprintf "beta must be non-negative (got %s)" (Rat.to_string beta)))
    else None

let partition_checked ?deadline ?budget spec ~p ~m_local ~net =
  let min_words = max 2 (Spec.num_arrays spec) in
  if p < 1 then
    Error
      (Engine_error.Invalid_request (Printf.sprintf "p must be positive (got %d)" p))
  else if m_local < min_words then
    Error (Engine_error.Cache_too_small { m = m_local; min_words })
  else
    match validate_net net with
    | Some e -> Error e
    | None ->
      let key = key_of_partition spec ~p ~m_local ~net in
      catch_errors (fun () ->
        guard deadline "partition";
        match Memo.find_opt partition_cache key with
        | Some sol -> sol
        | None -> (
          match
            staged "partition.solve" t_partition (fun () ->
              Partition_solve.solve ?budget spec ~p ~m_local ~net)
          with
          | None -> Engine_error.raise_error (Engine_error.Unfactorable_p { p })
          | Some sol ->
            Obs.incr ~by:sol.Partition_solve.grids_enumerated c_part_enumerated;
            Obs.incr ~by:sol.Partition_solve.grids_pruned c_part_pruned;
            Memo.add partition_cache key sol;
            sol))

type partition_group = {
  pg_block : int array;
  pg_procs : int;
  pg_words : int;  (** simulated distinct words for this block shape *)
}

type partition_validation = {
  pv_groups : partition_group list;
  pv_max_words : Bigint.t;
  pv_matches : bool;
}

(* Execute the claim: one Pool task per distinct block shape (a domain
   stands in for every processor in the shape's group — their sub-nests
   are congruent, so one simulation covers the lot), count the distinct
   words each touches, and compare the largest against the solution's
   modeled gather footprint. Exact equality is the acceptance bar: the
   model is a closed-form count of the same set the simulation
   enumerates. *)
let partition_validate ?jobs spec (sol : Partition_solve.solution) =
  let groups = Comm_model.block_groups spec ~grid:sol.Partition_solve.grid in
  match
    List.find_map (fun (block, _) -> too_large (Spec.with_bounds spec block)) groups
  with
  | Some e -> Error e
  | None ->
    catch_errors (fun () ->
      let sims =
        Pool.map_list ?jobs
          (fun (block, procs) ->
            {
              pg_block = block;
              pg_procs = procs;
              pg_words = Comm_model.simulated_block spec ~block;
            })
          groups
      in
      let max_words =
        List.fold_left (fun acc g -> max acc g.pg_words) 0 sims
      in
      {
        pv_groups = sims;
        pv_max_words = Bigint.of_int max_words;
        pv_matches =
          Bigint.equal (Bigint.of_int max_words) sol.Partition_solve.gather_words;
      })

(* ------------------------------------------------------------------ *)
(* Hierarchies                                                        *)
(* ------------------------------------------------------------------ *)

type hierarchy_report = {
  hspec : Spec.t;
  hcapacities : int array;
  htiles : int array list;
  hresult : Executor.hierarchy_result;
}

let nested_cache : int array list Memo.t = Memo.create ~name:"nested" ()

let nested_key spec ~capacities =
  Memo.key_of_spec spec ^ ";ms="
  ^ String.concat "," (List.map string_of_int (Array.to_list capacities))

let nested_tiles spec ~capacities =
  let key = nested_key spec ~capacities in
  Memo.find_or_add nested_cache key (fun () -> Tiling.nested spec ~ms:capacities)

let hierarchy ?policy spec ~capacities =
  Option.iter Engine_error.raise_error (too_large spec);
  let tiles = nested_tiles spec ~capacities in
  let hresult =
    Executor.run_hierarchy ?policy spec ~schedule:(Schedules.Nested tiles) ~capacities
  in
  { hspec = spec; hcapacities = capacities; htiles = tiles; hresult }

(* ------------------------------------------------------------------ *)
(* Cache persistence                                                  *)
(* ------------------------------------------------------------------ *)

(* A versioned JSON document of every durable memo table, so a restarted
   daemon (or a fresh replica) boots warm. Persisted: the shared tiles,
   the nested-tiling table and the compiled plans. Not persisted: the LP
   memo (plans answer LP (5.1) for every compiled shape with no solve),
   the analysis cache (cheap to rebuild and full of floats) and
   Plan_failed negative entries (re-failing is cheap). Nothing restored
   is trusted: a plan is recompiled from its shape key, and a tile is
   checked against the spec its key names. Sections this build does not
   read — the "lp" and "basis" sections older snapshots carry — are
   skipped, not counted as rejected.
   Entries are emitted in sorted key order, so snapshot -> restore ->
   snapshot is byte-identical. *)

let snapshot_version = 1

let cache_snapshot ?plans () =
  let buf = Buffer.create 8192 in
  let str s = Buffer.add_string buf (Jsonlite.quote s) in
  let int_array label ints =
    Buffer.add_string buf label;
    Buffer.add_char buf '[';
    Array.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int x))
      ints;
    Buffer.add_char buf ']'
  in
  let section name entries emit =
    Buffer.add_char buf ',';
    str name;
    Buffer.add_string buf ":[";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf "{\"k\":";
        str k;
        emit v;
        Buffer.add_char buf '}')
      entries;
    Buffer.add_char buf ']'
  in
  Buffer.add_string buf (Printf.sprintf "{\"v\":%d" snapshot_version);
  let plans =
    match plans with
    | Some plans -> plans
    | None ->
      section "shared" (Memo.to_alist shared_cache) (fun t -> int_array ",\"t\":" t);
      section "nested" (Memo.to_alist nested_cache) (fun ts ->
        Buffer.add_string buf ",\"ts\":[";
        List.iteri
          (fun i t ->
            if i > 0 then Buffer.add_char buf ',';
            int_array "" t)
          ts;
        Buffer.add_char buf ']');
      List.filter_map
        (function _, Plan_ready p -> Some p | _, Plan_failed _ -> None)
        (Memo.to_alist plan_cache)
  in
  (* Plans are embedded as their own canonical JSON documents
     (Tiling_plan.to_json), which already round-trip byte-identically. *)
  Buffer.add_string buf ",\"plans\":[";
  Buffer.add_string buf (String.concat "," (List.map Tiling_plan.to_json plans));
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* Per-entry validation on restore: a malformed entry is skipped and
   counted, never fatal — a corrupt snapshot degrades to a colder boot,
   not a dead daemon. Only a malformed container (unparseable JSON,
   missing/wrong version) rejects the whole document. *)

let json_list f j =
  Option.bind (Jsonlite.to_list j) (fun l ->
    let xs = List.filter_map f l in
    if List.compare_lengths xs l = 0 then Some xs else None)

let json_int x =
  match Jsonlite.to_num x with
  | Some f when Float.is_integer f && Float.abs f < 1e18 -> Some (int_of_float f)
  | _ -> None

let json_ints j = Option.map Array.of_list (json_list json_int j)

let rec ascending cmp = function
  | a :: (b :: _ as rest) -> cmp a b && ascending cmp rest
  | _ -> true

(* A restored ladder of tiles (a shared tile is a ladder of one) is kept
   only if its key is exactly the one [rekey] builds from the spec and
   capacities the key names, and each level fits that spec: one entry
   per loop, 1 <= t_i <= L_i, a total footprint within its capacity, and
   no smaller than the level inside it. *)
let valid_tiles ~field ~rekey k ts =
  match Memo.spec_of_key k with
  | Error _ -> false
  | Ok (spec, fields) -> (
    let fits t m =
      Array.length t = Spec.num_loops spec
      && Array.for_all2 (fun ti l -> 1 <= ti && ti <= l) t spec.Spec.bounds
      && Tiling.total_footprint spec t <= m
    in
    match List.assoc_opt field fields with
    | None -> false
    | Some v ->
      let caps = List.filter_map int_of_string_opt (String.split_on_char ',' v) in
      caps <> []
      && List.for_all (fun m -> m >= 2) caps
      && ascending ( < ) caps
      && String.equal (rekey spec caps) k
      && List.length ts = List.length caps
      && List.for_all2 fits ts caps
      && ascending (Array.for_all2 ( <= )) ts)

let valid_shared k t =
  valid_tiles ~field:"m" k [ t ] ~rekey:(fun spec caps ->
    snd (key_of_request spec ~m:(List.hd caps)))

let valid_nested =
  valid_tiles ~field:"ms" ~rekey:(fun spec caps ->
    nested_key spec ~capacities:(Array.of_list caps))

let cache_restore text =
  match Jsonlite.parse text with
  | Error msg -> Error ("cache snapshot: " ^ msg)
  | Ok json -> (
    match Jsonlite.num_member "v" json with
    | None -> Error "cache snapshot: missing \"v\" version field"
    | Some v when v <> float_of_int snapshot_version ->
      Error
        (Printf.sprintf "cache snapshot: unsupported version %g (want %d)" v
           snapshot_version)
    | Some _ ->
      let loaded = ref 0 and rejected = ref 0 in
      let each name accept =
        match Jsonlite.list_member name json with
        | None -> ()
        | Some l ->
          List.iter (fun e -> if accept e then incr loaded else incr rejected) l
      in
      let keyed f e =
        match Jsonlite.str_member "k" e with None -> false | Some k -> f k e
      in
      each "shared"
        (keyed (fun k e ->
           match Option.bind (Jsonlite.member "t" e) json_ints with
           | Some t when valid_shared k t ->
             Memo.add shared_cache k t;
             true
           | _ -> false));
      each "nested"
        (keyed (fun k e ->
           match Option.bind (Jsonlite.member "ts" e) (json_list json_ints) with
           | Some ts when valid_nested k ts ->
             Memo.add nested_cache k ts;
             true
           | _ -> false));
      each "plans" (fun e ->
        match Tiling_plan.of_json e with
        | Ok p ->
          install_plan p;
          true
        | Error _ -> false);
      Ok (!loaded, !rejected))

(* ------------------------------------------------------------------ *)
(* Introspection                                                      *)
(* ------------------------------------------------------------------ *)

let cache_stats () =
  let tables_hits =
    Memo.hits lp_cache + Memo.hits analysis_cache + Memo.hits shared_cache
    + Memo.hits nested_cache + Memo.hits plan_cache + Memo.hits partition_cache
  in
  let tables_misses =
    Memo.misses lp_cache + Memo.misses analysis_cache + Memo.misses shared_cache
    + Memo.misses nested_cache + Memo.misses plan_cache + Memo.misses partition_cache
  in
  (tables_hits, tables_misses)

let reset_caches () =
  Memo.clear lp_cache;
  Memo.clear analysis_cache;
  Memo.clear shared_cache;
  Memo.clear nested_cache;
  Memo.clear plan_cache;
  Memo.clear partition_cache

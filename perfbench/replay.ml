(* The traced in-process replay behind [run.py --trace 1].

   Each workload's request list goes through the same public calls the
   daemon makes for it (Request.decode, Pipeline.run_staged and its
   simulation continuation, Pipeline.partition_checked,
   Pipeline.compile_pending at the batch boundary, Report.to_json and the
   Serve_protocol envelope), in one process, with no socket. This file
   opens an Obs.Trace span around every one of those calls; the engine's
   own spans (pipeline.analysis, pipeline.lower_bound, pipeline.tile_shared,
   pipeline.simulate, plan.compile, simplex.solve, ...) nest under them
   through the trace's parent links. Counts come from Obs.diff over each
   workload's replay.

   Every workload is replayed twice from cold caches: untraced, for the
   wall time tracing costs, then traced. A third pass replays the
   simulate list in pairs through Pipeline.sweep_checked ~jobs:2 for the
   pool's queue wait. *)

let span = Obs.Trace.with_span

(* One request line through the daemon's calls; returns the response
   line, byte for byte what the daemon would send on a one-line batch. *)
let handle line =
  span "bench.request" @@ fun () ->
  match span "serve.decode" (fun () -> Request.decode line) with
  | Error e -> Serve_protocol.error_response ~v:e.Request.err_v ~id:e.Request.err_id e.Request.err
  | Ok req -> (
    let id = req.Request.id and v = req.Request.v and warnings = req.Request.warnings in
    let spec = req.Request.spec in
    match req.Request.body with
    | Request.Analyze { m; sims; shared; timings } ->
      let staged =
        span "engine.run_staged" (fun () -> Pipeline.run_staged (Pipeline.request ~sims ~shared spec ~m))
      in
      let res =
        match staged with Pool.Done r -> r | Pool.More f -> span "loopexec.simulate" f
      in
      let out =
        span "serve.encode" (fun () ->
          match res with
          | Ok rep ->
            Serve_protocol.ok_response ~warnings ~v ~id ~report_json:(Report.to_json ~timings rep) ()
          | Error e -> Serve_protocol.error_response ~v ~id e)
      in
      if Pipeline.pending_count () > 0 then
        span "plan.compile_pending" (fun () -> ignore (Pipeline.compile_pending ~jobs:1 ()));
      out
    | Request.Partition { procs; m_local; net } -> (
      let res = span "distrib.solve" (fun () -> Pipeline.partition_checked spec ~p:procs ~m_local ~net) in
      span "serve.encode" @@ fun () ->
      match res with
      | Ok sol ->
        Serve_protocol.partition_response ~warnings ~v ~id
          ~partition_json:(Partition_solve.to_json sol) ()
      | Error e -> Serve_protocol.error_response ~v ~id e)
    | Request.Sweep _ | Request.Compile -> failwith "the benchmark sends only analyze and partition")

(* A cold daemon: empty caches, deferred plan compiles, warm-up pass. *)
let boot (w : Workload.t) =
  Pipeline.reset_caches ();
  Pipeline.set_plan_mode Pipeline.Plan_deferred;
  List.iter (fun l -> ignore (handle l)) w.Workload.warmup;
  ignore (Pipeline.compile_pending ~jobs:1 ())

type pass = {
  wall_s : float;
  responses : string list;
  obs : Obs.snapshot;  (** counts over the pass *)
}

let replay (w : Workload.t) requests =
  boot w;
  let s0 = Obs.snapshot () in
  let t0 = Unix.gettimeofday () in
  let responses = List.map handle requests in
  let wall_s = Unix.gettimeofday () -. t0 in
  { wall_s; responses; obs = Obs.diff s0 (Obs.snapshot ()) }

(* ------------------------------------------------------------------ *)
(* Span arithmetic                                                     *)
(* ------------------------------------------------------------------ *)

(* The events inside one workload's [bench.workload] span. *)
let window events (root : Obs.Trace.event) =
  List.filter
    (fun (e : Obs.Trace.event) ->
      e.Obs.Trace.tid = root.Obs.Trace.tid
      && e.Obs.Trace.ts_ns >= root.Obs.Trace.ts_ns
      && e.Obs.Trace.ts_ns + e.Obs.Trace.dur_ns <= root.Obs.Trace.ts_ns + root.Obs.Trace.dur_ns
      && e.Obs.Trace.sid <> root.Obs.Trace.sid)
    events

(* Self time: a span's duration minus its direct children's. *)
let self_ns events =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let p = e.Obs.Trace.parent in
      Hashtbl.replace child p (e.Obs.Trace.dur_ns + Option.value ~default:0 (Hashtbl.find_opt child p)))
    events;
  List.map
    (fun (e : Obs.Trace.event) ->
      ( e.Obs.Trace.ename,
        e.Obs.Trace.dur_ns - Option.value ~default:0 (Hashtbl.find_opt child e.Obs.Trace.sid) ))
    events

let durations name events =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      if e.Obs.Trace.ename = name then Some (float_of_int e.Obs.Trace.dur_ns) else None)
    events

let median = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let counter (s : Obs.snapshot) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name s.Obs.scounters))

let ratio a b = if b > 0.0 then a /. b else nan

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let tag = function
  | "analytic-repeat" -> "repeat"
  | "analytic-novel" -> "novel"
  | w -> w

let rec take n = function x :: r when n > 0 -> x :: take (n - 1) r | _ -> []

let rec pairs = function a :: b :: r -> [ a; b ] :: pairs r | [ a ] -> [ [ a ] ] | [] -> []

let queue_wait_us requests =
  let reqs =
    List.filter_map
      (fun l ->
        match Request.decode l with
        | Ok { Request.spec; body = Request.Analyze { m; sims; shared; _ }; _ } ->
          Some (Pipeline.request ~sims ~shared spec ~m)
        | _ -> None)
      requests
  in
  let s0 = Obs.snapshot () in
  List.iter (fun batch -> ignore (Pipeline.sweep_checked ~jobs:2 batch)) (pairs reqs);
  let d = Obs.diff s0 (Obs.snapshot ()) in
  match List.assoc_opt "pool.queue_wait" d.Obs.stimers with
  | Some t when t.Obs.tcalls > 0 -> 1e6 *. t.Obs.tseconds /. float_of_int t.Obs.tcalls
  | _ -> nan

let write_lines path lines =
  let oc = open_out_bin path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

(* Each workload's list is replayed up to [Workload.trace_size]. *)
let run ~seed ~seconds ~dir ~out =
  Obs.Trace.set_capacity (1 lsl 20);
  let lists =
    List.map
      (fun name ->
        let w = Workload.make ~seed ~seconds name in
        (w, take (Workload.trace_size ~seconds name) w.Workload.requests))
      Workload.names
  in
  let untraced = List.map (fun (w, reqs) -> (w.Workload.name, replay w reqs)) lists in
  Obs.Trace.enable ();
  Obs.Trace.set_lane_name "main";
  let traced =
    List.mapi
      (fun i (w, reqs) ->
        (w.Workload.name, span ~arg:i "bench.workload" (fun () -> replay w reqs)))
      lists
  in
  Obs.Trace.disable ();
  let events = Obs.Trace.events () in
  let dropped = Obs.Trace.dropped () in
  Obs.Trace.write_file out;
  let trace_parses =
    match Jsonlite.parse (In_channel.with_open_bin out In_channel.input_all) with
    | Ok _ -> true
    | Error _ -> false
  in
  let qwait =
    let sim = List.find (fun (w, _) -> w.Workload.name = "simulate") lists in
    boot (fst sim);
    queue_wait_us (snd sim)
  in
  List.iter
    (fun (name, p) ->
      let d = Filename.concat dir name in
      (try Sys.mkdir d 0o755 with Sys_error _ -> ());
      write_lines (Filename.concat d "replay.ndjson") p.responses)
    traced;
  let roots =
    List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.ename = "bench.workload") events
  in
  let win name =
    let rec index k = function
      | [] -> invalid_arg name
      | n :: r -> if n = name then k else index (k + 1) r
    in
    let idx = index 0 Workload.names in
    let root = List.find (fun (e : Obs.Trace.event) -> e.Obs.Trace.earg = idx) roots in
    (root, window events root)
  in
  let pass name = List.assoc name traced in
  let requests name = float_of_int (List.length (pass name).responses) in
  let med_us name span_name = median (durations span_name (snd (win name))) /. 1e3 in
  let per_req name c = counter (pass name).obs c /. requests name in
  let hit_ratio name memo =
    let o = (pass name).obs in
    ratio (counter o ("memo." ^ memo ^ ".hits"))
      (counter o ("memo." ^ memo ^ ".hits") +. counter o ("memo." ^ memo ^ ".misses"))
  in
  (* LP answers that needed no fresh LP solve: every Pipeline.solve_lp
     looks up the plan cache once, and each LP memo miss is one lex-max
     solve. *)
  let lp_hit_ratio name =
    let o = (pass name).obs in
    let lookups = counter o "memo.plan.hits" +. counter o "memo.plan.misses" in
    ratio (lookups -. counter o "memo.lp.misses") lookups
  in
  let simplex_us name =
    match List.assoc_opt "simplex.solve" (pass name).obs.Obs.stimers with
    | Some t when t.Obs.tcalls > 0 -> 1e6 *. t.Obs.tseconds /. float_of_int t.Obs.tcalls
    | _ -> nan
  in
  let sim_events = snd (win "simulate") in
  let sim_ns = List.fold_left ( +. ) 0.0 (durations "pipeline.simulate" sim_events) in
  let accesses = counter (pass "simulate").obs "cachesim.L1.accesses" in
  let per_workload =
    List.concat_map
      (fun name ->
        let root, evs = win name in
        let layer_self =
          List.fold_left
            (fun acc (n, s) -> if n = "bench.request" then acc else acc + s)
            0 (self_ns evs)
        in
        [
          ( "trace.overhead_ratio." ^ tag name,
            (pass name).wall_s /. (List.assoc name untraced).wall_s,
            "ratio" );
          ( "trace.unattributed_ratio." ^ tag name,
            1.0 -. (float_of_int layer_self /. float_of_int root.Obs.Trace.dur_ns),
            "ratio" );
        ])
      Workload.names
  in
  let metrics =
    [
      ("serve.decode_us", med_us "analytic-repeat" "serve.decode", "us");
      ("serve.encode_us", med_us "analytic-repeat" "serve.encode", "us");
      ("engine.analysis_us.repeat", med_us "analytic-repeat" "pipeline.analysis", "us");
      ("engine.analysis_us.novel", med_us "analytic-novel" "pipeline.analysis", "us");
      ("engine.plan_hit_ratio.repeat", hit_ratio "analytic-repeat" "plan", "ratio");
      ("engine.plan_hit_ratio.novel", hit_ratio "analytic-novel" "plan", "ratio");
      ("engine.lp_hit_ratio.repeat", lp_hit_ratio "analytic-repeat", "ratio");
      ("engine.lp_hit_ratio.novel", lp_hit_ratio "analytic-novel", "ratio");
      ("engine.queue_wait_us", qwait, "us");
      ("plan.compile_us", med_us "analytic-novel" "plan.compile", "us");
      ( "plan.compiles_per_request",
        float_of_int (List.length (durations "plan.compile" (snd (win "analytic-novel"))))
        /. requests "analytic-novel",
        "count" );
      ("hbl.lower_bound_us", med_us "analytic-repeat" "pipeline.lower_bound", "us");
      ("hbl.shared_tile_us", med_us "analytic-novel" "pipeline.tile_shared", "us");
      ("hbl.search_nodes_per_request", per_req "analytic-novel" "tiling.search.nodes", "count");
      ("simplex.solves_per_request.repeat", per_req "analytic-repeat" "simplex.solves", "count");
      ("simplex.solves_per_request.partition", per_req "partition" "simplex.solves", "count");
      ("simplex.pivots_per_request.repeat", per_req "analytic-repeat" "simplex.pivots", "count");
      ("simplex.pivots_per_request.partition", per_req "partition" "simplex.pivots", "count");
      ("simplex.solve_us.repeat", simplex_us "analytic-repeat", "us");
      ("simplex.solve_us.partition", simplex_us "partition", "us");
      ("loopexec.run_ms", median (durations "pipeline.simulate" sim_events) /. 1e6, "ms");
      ("loopexec.ns_per_access", ratio sim_ns accesses, "ns");
      ("cachesim.accesses_per_request", per_req "simulate" "cachesim.L1.accesses", "count");
      ( "cachesim.batched_run_ratio",
        1.0 -. ratio (counter (pass "simulate").obs "cachesim.batched_runs") accesses,
        "ratio" );
      ("distrib.solve_ms", med_us "partition" "distrib.solve" /. 1e3, "ms");
      ("distrib.grids_per_request", per_req "partition" "partition.grids_enumerated", "count");
      ( "distrib.prune_ratio",
        ratio
          (counter (pass "partition").obs "partition.pruned")
          (counter (pass "partition").obs "partition.grids_enumerated"),
        "ratio" );
    ]
    @ per_workload
  in
  let attempted = List.fold_left (fun n (_, p) -> n + List.length p.responses) 0 traced in
  let identical =
    List.for_all (fun (name, p) -> p.responses = (List.assoc name untraced).responses) traced
  in
  Printf.printf "trace: %d spans, %d dropped, trace parses with Jsonlite: %b, untraced = traced answers: %b\n"
    (List.length events) dropped trace_parses identical;
  let json_num x = if Float.is_finite x then Printf.sprintf "%.17g" x else "null" in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":0,\"metrics\":{%s}}\n"
    (trace_parses && identical && dropped = 0
    && List.for_all (fun (_, v, _) -> Float.is_finite v) metrics)
    attempted
    (String.concat ","
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" n (json_num v) u)
          metrics))

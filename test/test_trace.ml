(* Tests for Obs.Trace: span bookkeeping across Pool worker domains and
   the Chrome trace-event JSON export (validated with Jsonlite, the same
   parser bench/compare uses). The trace state is global, so every test
   starts from Obs.reset () and re-enables tracing itself. *)

let events_named name =
  List.filter (fun (e : Obs.Trace.event) -> e.Obs.Trace.ename = name) (Obs.Trace.events ())

let test_span_roundtrip () =
  Obs.reset ();
  Obs.Trace.enable ();
  let v = Obs.Trace.with_span ~arg:7 "t.one" (fun () -> 42) in
  Obs.Trace.disable ();
  Alcotest.(check int) "thunk value" 42 v;
  match events_named "t.one" with
  | [ e ] ->
    Alcotest.(check bool) "positive sid" true (e.Obs.Trace.sid > 0);
    Alcotest.(check int) "root parent" 0 e.Obs.Trace.parent;
    Alcotest.(check int) "arg tag" 7 e.Obs.Trace.earg;
    Alcotest.(check bool) "non-negative duration" true (e.Obs.Trace.dur_ns >= 0)
  | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)

let test_disabled_records_nothing () =
  Obs.reset ();
  (* disabled is the default; spans must be free no-ops *)
  Obs.Trace.with_span "t.off" (fun () -> ());
  Alcotest.(check int) "no spans" 0 (Obs.Trace.span_count ());
  Alcotest.(check int) "no events" 0 (List.length (Obs.Trace.events ()))

let test_parent_links () =
  Obs.reset ();
  Obs.Trace.enable ();
  Obs.Trace.with_span "t.outer" (fun () ->
    Obs.Trace.with_span "t.mid" (fun () -> Obs.Trace.with_span "t.leaf" (fun () -> ()));
    Obs.Trace.with_span "t.mid2" (fun () -> ()));
  Obs.Trace.disable ();
  let one name = match events_named name with [ e ] -> e | _ -> Alcotest.failf "missing %s" name in
  let outer = one "t.outer" and mid = one "t.mid" and leaf = one "t.leaf" and mid2 = one "t.mid2" in
  Alcotest.(check int) "outer is a root" 0 outer.Obs.Trace.parent;
  Alcotest.(check int) "mid nests in outer" outer.Obs.Trace.sid mid.Obs.Trace.parent;
  Alcotest.(check int) "leaf nests in mid" mid.Obs.Trace.sid leaf.Obs.Trace.parent;
  Alcotest.(check int) "sibling shares the parent" outer.Obs.Trace.sid mid2.Obs.Trace.parent;
  Alcotest.(check bool) "sids distinct" true
    (List.length
       (List.sort_uniq compare
          [ outer.Obs.Trace.sid; mid.Obs.Trace.sid; leaf.Obs.Trace.sid; mid2.Obs.Trace.sid ])
    = 4)

let test_exact_span_counts_under_pool () =
  Obs.reset ();
  Obs.Trace.enable ();
  let n = 500 in
  ignore
    (Pool.map ~jobs:4
       (fun i -> Obs.Trace.with_span "t.work" (fun () -> i * 2))
       (Array.init n (fun i -> i)));
  Obs.Trace.disable ();
  (* every task also gets Pool's own "pool.task" span *)
  Alcotest.(check int) "user spans exact" n (List.length (events_named "t.work"));
  Alcotest.(check int) "pool spans exact" n (List.length (events_named "pool.task"));
  Alcotest.(check int) "span_count covers both" (2 * n) (Obs.Trace.span_count ());
  Alcotest.(check int) "nothing dropped" 0 (Obs.Trace.dropped ());
  (* user spans are children of their pool.task span, on the same lane *)
  let tasks = events_named "pool.task" in
  List.iter
    (fun (w : Obs.Trace.event) ->
      match
        List.find_opt (fun (t : Obs.Trace.event) -> t.Obs.Trace.sid = w.Obs.Trace.parent) tasks
      with
      | None -> Alcotest.fail "work span not parented to a pool.task span"
      | Some t -> Alcotest.(check int) "same lane as parent" t.Obs.Trace.tid w.Obs.Trace.tid)
    (events_named "t.work")

(* A barrier for the tasks of one Pool.map: each task waits until [jobs]
   tasks have started. A domain runs one task at a time, so the first
   [jobs] tasks start on [jobs] distinct domains and every worker lane
   gets a span, however fast the work is. Needs at least [jobs] tasks. *)
let latch jobs =
  let started = Atomic.make 0 in
  fun () ->
    Atomic.incr started;
    while Atomic.get started < jobs do
      Unix.sleepf 50e-6
    done

let test_worker_lanes_distinct () =
  Obs.reset ();
  Obs.Trace.enable ();
  let jobs = 4 in
  let wait = latch jobs in
  ignore
    (Pool.map ~jobs
       (fun _ -> Obs.Trace.with_span "t.work" wait)
       (Array.make 48 ()));
  Obs.Trace.disable ();
  let tids =
    List.sort_uniq compare
      (List.map (fun (e : Obs.Trace.event) -> e.Obs.Trace.tid) (events_named "pool.task"))
  in
  Alcotest.(check int) "one lane per worker" jobs (List.length tids);
  let lanes = Obs.Trace.lanes () in
  Alcotest.(check int) "lanes reported" jobs (List.length lanes);
  (* spawned workers carry worker-N names; worker 0 runs on the caller *)
  let named =
    List.filter (fun (_, n) -> Astring.String.is_prefix ~affix:"worker-" n) lanes
  in
  Alcotest.(check int) "spawned workers named" (jobs - 1) (List.length named)

let test_reset_clears_trace () =
  Obs.reset ();
  Obs.Trace.enable ();
  Obs.Trace.with_span "t.gone" (fun () -> ());
  Alcotest.(check int) "recorded" 1 (Obs.Trace.span_count ());
  Obs.reset ();
  Alcotest.(check int) "span_count cleared" 0 (Obs.Trace.span_count ());
  Alcotest.(check int) "events cleared" 0 (List.length (Obs.Trace.events ()));
  Alcotest.(check int) "dropped cleared" 0 (Obs.Trace.dropped ());
  Obs.Trace.disable ()

let test_ring_overwrite_counts_drops () =
  Obs.reset ();
  Obs.Trace.set_capacity 64;
  Obs.Trace.enable ();
  (* fresh capacity applies to rings created after the call; this test's
     spans run on the main domain whose ring may predate it, so drive
     enough spans to wrap either way *)
  let n = 100_000 in
  for i = 1 to n do
    Obs.Trace.with_span ~arg:i "t.wrap" (fun () -> ())
  done;
  Obs.Trace.disable ();
  Obs.Trace.set_capacity 16384;
  Alcotest.(check int) "all spans counted" n (Obs.Trace.span_count ());
  let retained = List.length (events_named "t.wrap") in
  Alcotest.(check bool) "ring bounded" true (retained < n);
  Alcotest.(check int) "dropped = recorded - retained" (n - retained) (Obs.Trace.dropped ());
  (* drops also surface as a plain registry counter, so a telemetry
     exporter sees ring pressure without calling into Trace *)
  Alcotest.(check int) "obs.trace.dropped counter mirrors Trace.dropped"
    (Obs.Trace.dropped ())
    (Obs.value (Obs.counter "obs.trace.dropped"));
  (* the ring keeps the most recent spans *)
  let max_tag =
    List.fold_left
      (fun acc (e : Obs.Trace.event) -> max acc e.Obs.Trace.earg)
      0 (events_named "t.wrap")
  in
  Alcotest.(check int) "newest retained" n max_tag

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let export_parallel_trace () =
  Obs.reset ();
  Obs.Trace.enable ();
  Obs.Trace.set_lane_name "main";
  let spec = Kernels.matmul ~l1:16 ~l2:16 ~l3:16 in
  let reqs =
    List.map
      (fun m -> Pipeline.request ~sims:[ Pipeline.sim Pipeline.Optimal ] ~shared:true spec ~m)
      [ 64; 128; 256; 512 ]
  in
  (* [Pipeline.sweep_checked ~jobs:3 reqs] with a latch in each item's
     first stage: the simulation continuations still go to the pool's
     simulation queue, where any lane may claim them, and every worker
     lane gets a span however fast the analysis is. *)
  let wait = latch 3 in
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "sweep: %s" (Engine_error.to_string e))
    (Pool.map_staged_list ~jobs:3 ~classify:Pipeline.classify
       (fun req ->
         wait ();
         Pipeline.run_staged req)
       reqs);
  Obs.Trace.disable ();
  Obs.Trace.export_json ()

(* The lane names of an exported trace's thread_name metadata records. *)
let exported_lane_names json =
  List.filter_map
    (fun e ->
      match (Jsonlite.str_member "ph" e, Jsonlite.str_member "name" e, Jsonlite.member "args" e) with
      | Some "M", Some "thread_name", Some args -> Jsonlite.str_member "name" args
      | _ -> None)
    (Option.get (Jsonlite.list_member "traceEvents" json))

let test_chrome_json_valid () =
  Pipeline.reset_caches ();
  let j = export_parallel_trace () in
  match Jsonlite.parse j with
  | Error msg -> Alcotest.failf "export not valid JSON: %s" msg
  | Ok json ->
    let events = Option.get (Jsonlite.list_member "traceEvents" json) in
    Alcotest.(check bool) "has events" true (List.length events > 0);
    let phases = List.filter_map (Jsonlite.str_member "ph") events in
    Alcotest.(check int) "every event has a phase" (List.length events) (List.length phases);
    Alcotest.(check bool) "only complete + metadata events" true
      (List.for_all (fun p -> p = "X" || p = "M") phases);
    let xs = List.filter (fun e -> Jsonlite.str_member "ph" e = Some "X") events in
    let ms = List.filter (fun e -> Jsonlite.str_member "ph" e = Some "M") events in
    Alcotest.(check bool) "spans present" true (xs <> []);
    (* every X event is well-formed: named, non-negative monotonic ts,
       non-negative dur, a pid/tid, and its sid in args *)
    let ts =
      List.map
        (fun e ->
          Alcotest.(check bool) "has name" true (Jsonlite.str_member "name" e <> None);
          Alcotest.(check bool) "has tid" true (Jsonlite.num_member "tid" e <> None);
          Alcotest.(check bool) "has pid" true (Jsonlite.num_member "pid" e <> None);
          let dur = Option.get (Jsonlite.num_member "dur" e) in
          Alcotest.(check bool) "dur >= 0" true (dur >= 0.0);
          let args = Option.get (Jsonlite.member "args" e) in
          Alcotest.(check bool) "sid arg" true
            (match Jsonlite.num_member "sid" args with Some s -> s > 0.0 | None -> false);
          let t = Option.get (Jsonlite.num_member "ts" e) in
          Alcotest.(check bool) "ts >= 0" true (t >= 0.0);
          t)
        xs
    in
    let rec monotonic = function
      | a :: (b :: _ as rest) -> a <= b && monotonic rest
      | _ -> true
    in
    Alcotest.(check bool) "timestamps sorted" true (monotonic ts);
    (* one thread_name metadata record per lane, lanes distinct, and a
       worker lane for each spawned domain *)
    let lane_names =
      List.filter_map
        (fun e ->
          match (Jsonlite.str_member "name" e, Jsonlite.member "args" e) with
          | Some "thread_name", Some args -> Jsonlite.str_member "name" args
          | _ -> None)
        ms
    in
    Alcotest.(check int) "every metadata record is a thread name"
      (List.length ms) (List.length lane_names);
    let x_tids =
      List.sort_uniq compare (List.filter_map (Jsonlite.num_member "tid") xs)
    in
    let m_tids =
      List.sort_uniq compare (List.filter_map (Jsonlite.num_member "tid") ms)
    in
    Alcotest.(check (list (float 0.0))) "each span lane is named" x_tids m_tids;
    Alcotest.(check int) "lane names distinct" (List.length lane_names)
      (List.length (List.sort_uniq compare lane_names));
    Alcotest.(check bool) "worker lanes present" true
      (List.exists (fun n -> Astring.String.is_prefix ~affix:"worker-" n) lane_names);
    Alcotest.(check bool) "pipeline stages traced" true
      (List.exists (fun e -> Jsonlite.str_member "name" e = Some "pipeline.analysis") xs);
    Alcotest.(check bool) "simplex solves traced" true
      (List.exists (fun e -> Jsonlite.str_member "name" e = Some "simplex.solve") xs)

let test_lane_names_across_pool_calls () =
  (* two pool calls in one trace session, each spawning two workers: the
     spawned lanes are numbered across calls, so no name repeats *)
  Pipeline.reset_caches ();
  Obs.reset ();
  Obs.Trace.enable ();
  let spec = Kernels.matmul ~l1:16 ~l2:16 ~l3:16 in
  let reqs =
    List.map
      (fun m -> Pipeline.request ~sims:[ Pipeline.sim Pipeline.Optimal ] ~shared:true spec ~m)
      [ 64; 96; 128; 192; 256; 384; 512; 768 ]
  in
  List.iter
    (function
      | Ok _ -> ()
      | Error e -> Alcotest.failf "sweep: %s" (Engine_error.to_string e))
    (Pipeline.sweep_checked ~jobs:3 reqs);
  let wait = latch 3 in
  ignore (Pool.map_list ~jobs:3 (fun _ -> Obs.Trace.with_span "t.work" wait) (List.init 12 Fun.id));
  Obs.Trace.disable ();
  let json = Result.get_ok (Jsonlite.parse (Obs.Trace.export_json ())) in
  let lane_names = exported_lane_names json in
  Alcotest.(check int) "lane names distinct" (List.length lane_names)
    (List.length (List.sort_uniq compare lane_names));
  (* the latched map alone puts spans on both of its spawned workers *)
  Alcotest.(check bool) "worker lanes of the second call present" true
    (List.length (List.filter (Astring.String.is_prefix ~affix:"worker-") lane_names) >= 2)

let test_write_file () =
  Pipeline.reset_caches ();
  let j = export_parallel_trace () in
  let path = Filename.temp_file "trace_test" ".json" in
  Obs.Trace.write_file path;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "file matches export" (j ^ "\n") contents

let () =
  Alcotest.run "trace"
    [
      ( "spans",
        [
          Alcotest.test_case "roundtrip" `Quick test_span_roundtrip;
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled_records_nothing;
          Alcotest.test_case "parent links" `Quick test_parent_links;
          Alcotest.test_case "exact counts under Pool.map" `Quick
            test_exact_span_counts_under_pool;
          Alcotest.test_case "distinct worker lanes" `Quick test_worker_lanes_distinct;
          Alcotest.test_case "reset clears rings" `Quick test_reset_clears_trace;
          Alcotest.test_case "ring wrap counts drops" `Quick test_ring_overwrite_counts_drops;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome JSON validity" `Quick test_chrome_json_valid;
          Alcotest.test_case "write_file" `Quick test_write_file;
          Alcotest.test_case "lane names across pool calls" `Quick
            test_lane_names_across_pool_calls;
        ] );
    ]

(* Tests for the observability registry (lib/obs) and its wiring through
   the engine. The registry is global, so every test starts from
   Obs.reset (); the suite runs in its own executable. *)

let counter_value snap name = List.assoc_opt name snap.Obs.scounters
let timer_stat snap name = List.assoc_opt name snap.Obs.stimers

let test_counter_basics () =
  Obs.reset ();
  let c = Obs.counter "t.basic" in
  Alcotest.(check int) "starts at zero" 0 (Obs.value c);
  Obs.incr c;
  Obs.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (Obs.value c);
  Alcotest.(check bool) "same name, same cell" true (Obs.counter "t.basic" == c);
  Obs.record_max c 10;
  Alcotest.(check int) "record_max keeps larger current" 42 (Obs.value c);
  Obs.record_max c 100;
  Alcotest.(check int) "record_max raises" 100 (Obs.value c)

let test_timer_basics () =
  Obs.reset ();
  let t = Obs.timer "t.timer" in
  let v = Obs.time t (fun () -> 7 * 6) in
  Alcotest.(check int) "returns the value" 42 v;
  Obs.add_seconds t 0.25;
  Alcotest.(check int) "two recordings" 2 (Obs.calls t);
  Alcotest.(check bool) "seconds accumulated" true (Obs.seconds t >= 0.25);
  Alcotest.check_raises "exceptions pass through but are recorded"
    (Failure "boom")
    (fun () -> Obs.time t (fun () -> failwith "boom"));
  Alcotest.(check int) "failed call counted" 3 (Obs.calls t)

let test_counter_under_pool_concurrency () =
  Obs.reset ();
  let c = Obs.counter "t.conc" in
  let n = 2000 in
  ignore (Pool.map ~jobs:4 (fun i -> Obs.incr ~by:i c) (Array.init n (fun i -> i)));
  Alcotest.(check int) "no lost increments" (n * (n - 1) / 2) (Obs.value c)

let test_record_max_under_pool_concurrency () =
  Obs.reset ();
  let c = Obs.counter "t.max" in
  ignore (Pool.map ~jobs:4 (fun i -> Obs.record_max c i) (Array.init 500 (fun i -> i)));
  Alcotest.(check int) "max survives races" 499 (Obs.value c)

let test_timer_under_pool_concurrency () =
  Obs.reset ();
  let t = Obs.timer "t.tconc" in
  let n = 200 in
  ignore (Pool.map ~jobs:4 (fun _ -> Obs.time t (fun () -> ())) (Array.make n ()));
  Alcotest.(check int) "every timing counted" n (Obs.calls t);
  Alcotest.(check bool) "non-negative total" true (Obs.seconds t >= 0.0)

let test_snapshot_sorted_and_reset () =
  Obs.reset ();
  Obs.incr (Obs.counter "t.zz");
  Obs.incr (Obs.counter "t.aa");
  Obs.add_seconds (Obs.timer "t.zt") 0.1;
  Obs.add_seconds (Obs.timer "t.at") 0.1;
  let s = Obs.snapshot () in
  let names = List.map fst s.Obs.scounters in
  Alcotest.(check (list string)) "counters sorted" (List.sort compare names) names;
  let tnames = List.map fst s.Obs.stimers in
  Alcotest.(check (list string)) "timers sorted" (List.sort compare tnames) tnames;
  Obs.reset ();
  let s' = Obs.snapshot () in
  Alcotest.(check int) "reset zeroes counters" 0
    (List.fold_left (fun acc (_, v) -> acc + v) 0 s'.Obs.scounters);
  (* handles created before the reset stay valid *)
  Obs.incr (Obs.counter "t.aa");
  Alcotest.(check int) "handle survives reset" 1 (Obs.value (Obs.counter "t.aa"))

let test_json_shape () =
  Obs.reset ();
  Obs.incr ~by:3 (Obs.counter "t.json \"quoted\"");
  Obs.add_seconds (Obs.timer "t.jt") 0.5;
  let j = Obs.to_json (Obs.snapshot ()) in
  let contains sub = Astring.String.is_infix ~affix:sub j in
  Alcotest.(check bool) "counters key" true (contains "\"counters\"");
  Alcotest.(check bool) "timers key" true (contains "\"timers\"");
  Alcotest.(check bool) "escaped name" true (contains "\\\"quoted\\\"");
  Alcotest.(check bool) "calls field" true (contains "\"calls\":1");
  let count ch = String.fold_left (fun n c -> if c = ch then n + 1 else n) 0 j in
  Alcotest.(check int) "balanced braces" (count '{') (count '}');
  Alcotest.(check bool) "object" true
    (String.length j > 1 && j.[0] = '{' && j.[String.length j - 1] = '}')

(* ------------------------------------------------------------------ *)
(* Histograms and percentiles                                          *)
(* ------------------------------------------------------------------ *)

(* Log buckets (4 per octave) put ~19% worst-case relative error on any
   percentile estimate; 25% is a safe assertion margin. *)
let check_near name expected actual =
  let rel = Float.abs (actual -. expected) /. expected in
  if rel > 0.25 then Alcotest.failf "%s = %.0f, expected ~%.0f (err %.0f%%)" name actual expected (100. *. rel)

let test_histogram_percentiles () =
  Obs.reset ();
  let h = Obs.histogram "t.hist" in
  (* a long-tailed distribution with known quantiles: 900 fast samples,
     90 medium, 10 slow *)
  for _ = 1 to 900 do Obs.observe_ns h 1_000 done;
  for _ = 1 to 90 do Obs.observe_ns h 100_000 done;
  for _ = 1 to 10 do Obs.observe_ns h 10_000_000 done;
  Alcotest.(check int) "observations" 1000 (Obs.observations h);
  let d = List.assoc "t.hist" (Obs.snapshot ()).Obs.shists in
  Alcotest.(check int) "count" 1000 d.Obs.dcount;
  Alcotest.(check int) "sum exact" (900 * 1_000 + 90 * 100_000 + 10 * 10_000_000) d.Obs.dsum_ns;
  Alcotest.(check int) "max exact" 10_000_000 d.Obs.dmax_ns;
  check_near "mean" 109_900.0 (Obs.mean_ns d);
  check_near "p50" 1_000.0 (Obs.percentile d 50.0);
  check_near "p90" 1_000.0 (Obs.percentile d 90.0);
  check_near "p95" 100_000.0 (Obs.percentile d 95.0);
  check_near "p99.5" 10_000_000.0 (Obs.percentile d 99.5);
  (* the estimate never exceeds the recorded max *)
  Alcotest.(check bool) "p100 clamped to max" true
    (Obs.percentile d 100.0 <= float_of_int d.Obs.dmax_ns);
  Alcotest.(check (float 0.0)) "empty distribution" 0.0
    (Obs.percentile { Obs.dbuckets = [||]; dcount = 0; dsum_ns = 0; dmax_ns = 0 } 50.0)

let test_timer_feeds_histogram () =
  Obs.reset ();
  let t = Obs.timer "t.th" in
  for _ = 1 to 32 do Obs.add_seconds t 0.001 done;
  let st = List.assoc "t.th" (Obs.snapshot ()).Obs.stimers in
  Alcotest.(check int) "distribution count = calls" 32 st.Obs.tdist.Obs.dcount;
  check_near "p50 = 1ms" 1e6 (Obs.percentile st.Obs.tdist 50.0);
  check_near "p99 = 1ms" 1e6 (Obs.percentile st.Obs.tdist 99.0)

let test_diff () =
  Obs.reset ();
  let c = Obs.counter "t.dc" and t = Obs.timer "t.dt" in
  Obs.incr ~by:5 c;
  Obs.add_seconds t 0.01;
  let s0 = Obs.snapshot () in
  Obs.incr ~by:3 c;
  Obs.add_seconds t 0.02;
  Obs.add_seconds t 0.02;
  Obs.observe_ns (Obs.histogram "t.dh") 1_000;
  let d = Obs.diff s0 (Obs.snapshot ()) in
  Alcotest.(check (option int)) "counter delta" (Some 3) (counter_value d "t.dc");
  (match timer_stat d "t.dt" with
  | None -> Alcotest.fail "timer missing from diff"
  | Some st ->
    Alcotest.(check int) "timer call delta" 2 st.Obs.tcalls;
    Alcotest.(check bool) "timer seconds delta" true
      (Float.abs (st.Obs.tseconds -. 0.04) < 1e-3);
    Alcotest.(check int) "distribution delta" 2 st.Obs.tdist.Obs.dcount);
  (* a histogram born inside the window diffs against nothing *)
  let dh = List.assoc "t.dh" d.Obs.shists in
  Alcotest.(check int) "new histogram kept whole" 1 dh.Obs.dcount;
  (* never negative: when before > after (interleaved reset, or a diff
     taken backwards) the delta degrades to after's raw value *)
  let back = Obs.diff (Obs.snapshot ()) s0 in
  Alcotest.(check (option int)) "degrades to after's value" (Some 5)
    (counter_value back "t.dc")

let test_reset_clears_histograms () =
  Obs.reset ();
  let h = Obs.histogram "t.rh" in
  let t = Obs.timer "t.rt" in
  Obs.observe_ns h 500;
  Obs.add_seconds t 0.5;
  Obs.reset ();
  Alcotest.(check int) "observations cleared" 0 (Obs.observations h);
  Alcotest.(check int) "timer calls cleared" 0 (Obs.calls t);
  let d = List.assoc "t.rh" (Obs.snapshot ()).Obs.shists in
  Alcotest.(check int) "count cleared" 0 d.Obs.dcount;
  Alcotest.(check bool) "all buckets zero" true (Array.for_all (( = ) 0) d.Obs.dbuckets);
  Alcotest.(check int) "max cleared" 0 d.Obs.dmax_ns;
  (* handles stay live after the reset *)
  Obs.observe_ns h 500;
  Alcotest.(check int) "handle survives" 1 (Obs.observations h)

let test_histogram_under_pool_concurrency () =
  Obs.reset ();
  let h = Obs.histogram "t.hconc" in
  let n = 2000 in
  ignore (Pool.map ~jobs:4 (fun i -> Obs.observe_ns h (1 + i)) (Array.init n (fun i -> i)));
  let d = List.assoc "t.hconc" (Obs.snapshot ()).Obs.shists in
  Alcotest.(check int) "no lost observations" n d.Obs.dcount;
  Alcotest.(check int) "bucket totals agree" n (Array.fold_left ( + ) 0 d.Obs.dbuckets);
  Alcotest.(check int) "sum exact" (n * (n + 1) / 2) d.Obs.dsum_ns;
  Alcotest.(check int) "max exact" n d.Obs.dmax_ns

let test_pp_format () =
  Obs.reset ();
  Obs.incr ~by:1234567 (Obs.counter "t.big");
  Obs.add_seconds (Obs.timer "t.pt") 0.5;
  Obs.observe_s (Obs.histogram "t.ph") 0.25;
  let out = Format.asprintf "%a" Obs.pp (Obs.snapshot ()) in
  let contains sub = Astring.String.is_infix ~affix:sub out in
  Alcotest.(check bool) "thousands separators" true (contains "1,234,567");
  Alcotest.(check bool) "percentile columns" true (contains "p99");
  Alcotest.(check bool) "mean column" true (contains "mean");
  Alcotest.(check bool) "histogram section" true (contains "histograms:");
  Alcotest.(check bool) "human duration" true (contains "500.0ms");
  Alcotest.(check string) "group_int" "1,234,567" (Obs.group_int 1234567);
  Alcotest.(check string) "group_int small" "42" (Obs.group_int 42);
  Alcotest.(check string) "group_int negative" "-1,000" (Obs.group_int (-1000));
  Alcotest.(check string) "dur ns" "412ns" (Obs.pp_dur_ns 412.0);
  Alcotest.(check string) "dur us" "3.4us" (Obs.pp_dur_ns 3_400.0);
  Alcotest.(check string) "dur ms" "12.8ms" (Obs.pp_dur_ns 12_800_000.0);
  Alcotest.(check string) "dur s" "1.25s" (Obs.pp_dur_ns 1.25e9);
  Alcotest.(check string) "dur zero" "0" (Obs.pp_dur_ns 0.0)

let test_json_histogram_fields () =
  Obs.reset ();
  Obs.add_seconds (Obs.timer "t.jh") 0.125;
  Obs.observe_s (Obs.histogram "t.jhh") 0.125;
  let j = Obs.to_json (Obs.snapshot ()) in
  match Jsonlite.parse j with
  | Error msg -> Alcotest.failf "to_json unparseable: %s\n%s" msg j
  | Ok json ->
    let timer =
      Option.get (Jsonlite.member "t.jh" (Option.get (Jsonlite.member "timers" json)))
    in
    Alcotest.(check (option (float 1e-9))) "calls" (Some 1.0) (Jsonlite.num_member "calls" timer);
    (match Jsonlite.num_member "p50_s" timer with
    | None -> Alcotest.fail "p50_s missing"
    | Some p -> check_near "p50_s" 0.125 p);
    (match Jsonlite.num_member "max_s" timer with
    | None -> Alcotest.fail "max_s missing"
    | Some p -> check_near "max_s" 0.125 p);
    let hist =
      Jsonlite.member "t.jhh" (Option.get (Jsonlite.member "histograms" json))
    in
    Alcotest.(check bool) "histograms section carries the entry" true (hist <> None)

(* ------------------------------------------------------------------ *)
(* Gauges                                                              *)
(* ------------------------------------------------------------------ *)

let test_gauge_basics () =
  Obs.reset ();
  let g = Obs.gauge "t.g" in
  Alcotest.(check int) "starts at zero" 0 (Obs.gauge_value g);
  Obs.set_gauge g 5;
  Obs.add_gauge g 3;
  Obs.add_gauge g (-6);
  Alcotest.(check int) "level after set/add" 2 (Obs.gauge_value g);
  Alcotest.(check bool) "same name, same cell" true (Obs.gauge "t.g" == g);
  let st = List.assoc "t.g" (Obs.snapshot ()).Obs.sgauges in
  Alcotest.(check int) "snapshot value" 2 st.Obs.gvalue;
  Alcotest.(check int) "window min saw the start" 0 st.Obs.gmin;
  Alcotest.(check int) "window max saw the peak" 8 st.Obs.gmax;
  (* rewind collapses the window to the current level *)
  Obs.rewind_gauges ();
  let st = List.assoc "t.g" (Obs.snapshot ()).Obs.sgauges in
  Alcotest.(check int) "rewound min" 2 st.Obs.gmin;
  Alcotest.(check int) "rewound max" 2 st.Obs.gmax;
  Obs.set_gauge g 7;
  let st = List.assoc "t.g" (Obs.snapshot ()).Obs.sgauges in
  Alcotest.(check int) "fresh window min" 2 st.Obs.gmin;
  Alcotest.(check int) "fresh window max" 7 st.Obs.gmax;
  (* the snapshot invariant holds by construction *)
  Alcotest.(check bool) "min <= value <= max" true
    (st.Obs.gmin <= st.Obs.gvalue && st.Obs.gvalue <= st.Obs.gmax);
  Obs.reset ();
  Alcotest.(check int) "reset zeroes gauges" 0 (Obs.gauge_value g)

let test_gauge_diff_and_json () =
  Obs.reset ();
  let g = Obs.gauge "t.gd" in
  Obs.set_gauge g 10;
  let s0 = Obs.snapshot () in
  Obs.set_gauge g 4;
  (* levels, not flows: diff keeps after's stats verbatim *)
  let d = Obs.diff s0 (Obs.snapshot ()) in
  let st = List.assoc "t.gd" d.Obs.sgauges in
  Alcotest.(check int) "diff keeps the level" 4 st.Obs.gvalue;
  Alcotest.(check int) "diff keeps the max watermark" 10 st.Obs.gmax;
  match Jsonlite.parse (Obs.to_json (Obs.snapshot ())) with
  | Error msg -> Alcotest.failf "to_json unparseable: %s" msg
  | Ok json ->
    let gj =
      Option.get (Jsonlite.member "t.gd" (Option.get (Jsonlite.member "gauges" json)))
    in
    Alcotest.(check (option (float 0.0))) "json value" (Some 4.0)
      (Jsonlite.num_member "value" gj);
    Alcotest.(check (option (float 0.0))) "json min" (Some 0.0)
      (Jsonlite.num_member "min" gj);
    Alcotest.(check (option (float 0.0))) "json max" (Some 10.0)
      (Jsonlite.num_member "max" gj)

let test_gauge_under_pool_concurrency () =
  Obs.reset ();
  let g = Obs.gauge "t.gconc" in
  let n = 2000 in
  ignore
    (Pool.map ~jobs:4
       (fun _ ->
         Obs.add_gauge g 1;
         Obs.add_gauge g (-1))
       (Array.make n ()));
  Alcotest.(check int) "balanced adds return to zero" 0 (Obs.gauge_value g);
  let st = List.assoc "t.gconc" (Obs.snapshot ()).Obs.sgauges in
  Alcotest.(check bool) "max watermark saw at least one up" true (st.Obs.gmax >= 1);
  Alcotest.(check bool) "watermarks bracket the level" true
    (st.Obs.gmin <= 0 && st.Obs.gmax >= 0)

(* ------------------------------------------------------------------ *)
(* Structured logging                                                  *)
(* ------------------------------------------------------------------ *)

let read_lines file =
  let ic = open_in file in
  let out = ref [] in
  (try
     while true do
       out := input_line ic :: !out
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !out

let test_log_jsonl_sink () =
  Obs.reset ();
  let path = Filename.temp_file "obs_log" ".jsonl" in
  Fun.protect ~finally:(fun () -> Obs.Log.disable (); Sys.remove path) @@ fun () ->
  (match Obs.Log.to_file path with
  | Error msg -> Alcotest.failf "to_file: %s" msg
  | Ok () -> ());
  Obs.Log.set_level Obs.Log.Info;
  Alcotest.(check bool) "info enabled" true (Obs.Log.is_enabled Obs.Log.Info);
  Alcotest.(check bool) "debug filtered" false (Obs.Log.is_enabled Obs.Log.Debug);
  Obs.Log.debug "t.invisible" [];
  Obs.Log.info "t.event"
    [ ("n", `I 42); ("f", `F 0.5); ("ok", `B true); ("s", `S "x\"y\\z") ];
  Obs.Log.with_corr "req-1" (fun () ->
      Alcotest.(check (option string)) "ambient corr" (Some "req-1") (Obs.Log.corr ());
      Obs.Log.with_corr "req-2" (fun () ->
          Alcotest.(check (option string)) "corr nests" (Some "req-2") (Obs.Log.corr ()));
      Obs.Log.warn "t.correlated" []);
  Alcotest.(check (option string)) "corr restored" None (Obs.Log.corr ());
  Obs.Log.disable ();
  Obs.Log.info "t.after_disable" [];
  let lines = read_lines path in
  Alcotest.(check int) "two lines reached the sink" 2 (List.length lines);
  Alcotest.(check int) "obs.log.lines counted them" 2
    (Obs.value (Obs.counter "obs.log.lines"));
  List.iter
    (fun line ->
      match Jsonlite.parse line with
      | Error msg -> Alcotest.failf "log line unparseable (%s): %s" msg line
      | Ok _ -> ())
    lines;
  let first = Result.get_ok (Jsonlite.parse (List.nth lines 0)) in
  Alcotest.(check (option string)) "event" (Some "t.event")
    (Jsonlite.str_member "event" first);
  Alcotest.(check (option string)) "level" (Some "info")
    (Jsonlite.str_member "level" first);
  Alcotest.(check (option (float 0.0))) "int field" (Some 42.0)
    (Jsonlite.num_member "n" first);
  Alcotest.(check (option string)) "escaped string field" (Some "x\"y\\z")
    (Jsonlite.str_member "s" first);
  Alcotest.(check bool) "ts present and recent" true
    (match Jsonlite.num_member "ts" first with
    | Some ts -> Float.abs (ts -. Unix.gettimeofday ()) < 3600.0
    | None -> false);
  let second = Result.get_ok (Jsonlite.parse (List.nth lines 1)) in
  Alcotest.(check (option string)) "corr stamped" (Some "req-1")
    (Jsonlite.str_member "corr" second);
  Alcotest.(check (option string)) "warn level" (Some "warn")
    (Jsonlite.str_member "level" second)

let test_log_levels () =
  Alcotest.(check (option string)) "parse warn"
    (Some "warn")
    (Option.map Obs.Log.level_name (Obs.Log.level_of_string "WARNING"));
  Alcotest.(check (option string)) "parse debug"
    (Some "debug")
    (Option.map Obs.Log.level_name (Obs.Log.level_of_string "debug"));
  Alcotest.(check bool) "garbage rejected" true
    (Obs.Log.level_of_string "loud" = None);
  Alcotest.(check bool) "no sink, nothing enabled" true
    (Obs.Log.disable (); not (Obs.Log.is_enabled Obs.Log.Error))

(* ------------------------------------------------------------------ *)
(* Histogram edges and metric-name escaping                            *)
(* ------------------------------------------------------------------ *)

let test_histogram_zero_and_single () =
  Obs.reset ();
  let _zero = Obs.histogram "t.zero" in
  let h1 = Obs.histogram "t.one" in
  Obs.observe_ns h1 5_000;
  let s = Obs.snapshot () in
  let dz = List.assoc "t.zero" s.Obs.shists in
  Alcotest.(check int) "zero samples: count" 0 dz.Obs.dcount;
  Alcotest.(check int) "zero samples: sum" 0 dz.Obs.dsum_ns;
  Alcotest.(check (float 0.0)) "zero samples: percentile" 0.0 (Obs.percentile dz 99.0);
  let d1 = List.assoc "t.one" s.Obs.shists in
  Alcotest.(check int) "single sample: count" 1 d1.Obs.dcount;
  Alcotest.(check int) "single sample: max exact" 5_000 d1.Obs.dmax_ns;
  check_near "single sample: p50" 5_000.0 (Obs.percentile d1 50.0);
  check_near "single sample: p99" 5_000.0 (Obs.percentile d1 99.0);
  Alcotest.(check bool) "single sample: clamped to max" true
    (Obs.percentile d1 100.0 <= float_of_int d1.Obs.dmax_ns);
  (* the empty histogram still renders as valid JSON *)
  match Jsonlite.parse (Obs.to_json s) with
  | Error msg -> Alcotest.failf "to_json with empty histogram: %s" msg
  | Ok _ -> ()

let test_histogram_saturating_sum () =
  Obs.reset ();
  let h = Obs.histogram "t.sat" in
  Obs.observe_ns h max_int;
  Obs.observe_ns h max_int;
  let d = List.assoc "t.sat" (Obs.snapshot ()).Obs.shists in
  Alcotest.(check int) "both observations counted" 2 d.Obs.dcount;
  Alcotest.(check int) "sum saturates instead of wrapping" max_int d.Obs.dsum_ns;
  Alcotest.(check bool) "mean stays non-negative" true (Obs.mean_ns d >= 0.0)

let test_diff_across_reset () =
  Obs.reset ();
  let c = Obs.counter "t.rst" and h = Obs.histogram "t.rsth" in
  Obs.incr ~by:9 c;
  Obs.observe_ns h 1_000;
  Obs.observe_ns h 1_000;
  let s0 = Obs.snapshot () in
  Obs.reset ();
  Obs.incr ~by:2 c;
  Obs.observe_ns h 3_000;
  let d = Obs.diff s0 (Obs.snapshot ()) in
  (* before > after everywhere the reset rolled back: each field
     degrades to after's raw value, never goes negative *)
  Alcotest.(check (option int)) "counter degrades" (Some 2) (counter_value d "t.rst");
  let dh = List.assoc "t.rsth" d.Obs.shists in
  Alcotest.(check int) "count degrades" 1 dh.Obs.dcount;
  Alcotest.(check bool) "no negative buckets" true
    (Array.for_all (fun v -> v >= 0) dh.Obs.dbuckets);
  Alcotest.(check bool) "sum non-negative" true (dh.Obs.dsum_ns >= 0)

(* A metric name round-trips through to_json + jsonlite byte-for-byte:
   quotes, backslashes, control characters and raw high bytes included.
   The snapshot is built directly so arbitrary names never pollute the
   global registry. *)
let name_roundtrips name =
  let snap =
    { Obs.scounters = [ (name, 1) ]; sgauges = []; stimers = []; shists = [] }
  in
  match Jsonlite.parse (Obs.to_json snap) with
  | Error _ -> false
  | Ok json -> (
    match Jsonlite.member "counters" json with
    | Some (Jsonlite.Obj [ (k, _) ]) -> String.equal k name
    | _ -> false)

let test_name_escaping_all_bytes () =
  let nasty = String.init 256 Char.chr in
  Alcotest.(check bool) "all 256 bytes round-trip" true (name_roundtrips nasty);
  List.iter
    (fun name ->
      Alcotest.(check bool) ("round-trips: " ^ String.escaped name) true
        (name_roundtrips name))
    [ "plain"; "with \"quotes\""; "back\\slash"; "new\nline"; "tab\there";
      "nul\000byte"; "del\127char"; "high\xc3\xa9bytes"; "" ]

let qcheck_name_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"metric names survive to_json round-trip"
       QCheck.string name_roundtrips)

(* ------------------------------------------------------------------ *)
(* Pipeline integration                                                *)
(* ------------------------------------------------------------------ *)

let sweep_reports () =
  let spec = Kernels.matmul ~l1:16 ~l2:16 ~l3:16 in
  let sims = Pipeline.[ sim Optimal; sim Classic ] in
  let reqs =
    List.map (fun m -> Pipeline.request ~sims ~shared:true spec ~m) [ 64; 128; 64 ]
  in
  List.map
    (function
      | Ok r -> r
      | Error e -> Alcotest.failf "sweep: %s" (Engine_error.to_string e))
    (Pipeline.sweep_checked ~jobs:2 reqs)

let test_engine_instrumentation () =
  Obs.reset ();
  Pipeline.reset_caches ();
  let reports = sweep_reports () in
  Alcotest.(check int) "three reports" 3 (List.length reports);
  let s = Obs.snapshot () in
  let cv name = Option.value ~default:0 (counter_value s name) in
  Alcotest.(check bool) "simplex solved something" true (cv "simplex.solves" > 0);
  Alcotest.(check bool) "simplex pivoted" true (cv "simplex.pivots" > 0);
  Alcotest.(check bool) "cachesim hits recorded" true (cv "cachesim.L1.hits" > 0);
  Alcotest.(check bool) "cachesim misses recorded" true (cv "cachesim.L1.misses" > 0);
  Alcotest.(check int) "requests counted" 3 (cv "pipeline.requests");
  Alcotest.(check int) "simulations counted" 6 (cv "pipeline.simulations");
  Alcotest.(check bool) "pool ran" true (cv "pool.maps" > 0);
  (* obs memo counters mirror the per-table counters exactly *)
  let hits, misses = Pipeline.cache_stats () in
  let sum suffix =
    List.fold_left
      (fun acc name -> acc + cv ("memo." ^ name ^ "." ^ suffix))
      0
      [ "lp"; "analysis"; "shared"; "nested"; "plan" ]
  in
  Alcotest.(check int) "memo hits mirrored" hits (sum "hits");
  Alcotest.(check int) "memo misses mirrored" misses (sum "misses");
  Alcotest.(check bool) "repeated m=64 request hit a cache" true (hits > 0);
  (* stage timers saw every request *)
  (match timer_stat s "pipeline.analysis" with
  | None -> Alcotest.fail "pipeline.analysis timer missing"
  | Some t ->
    Alcotest.(check int) "analysis timed per request" 3 t.Obs.tcalls;
    Alcotest.(check bool) "non-negative" true (t.Obs.tseconds >= 0.0))

let test_json_of_sweep_obs_section () =
  Obs.reset ();
  Pipeline.reset_caches ();
  let reports = sweep_reports () in
  let plain = Report.json_of_sweep ~timings:false reports in
  Alcotest.(check bool) "no obs: versioned object" true
    (String.length plain > 0 && plain.[0] = '{');
  Alcotest.(check bool) "no obs: schema version" true
    (Astring.String.is_prefix ~affix:"{\"v\":1," plain);
  Alcotest.(check bool) "no obs: reports key" true
    (Astring.String.is_infix ~affix:"\"reports\":[" plain);
  Alcotest.(check bool) "no obs: no obs key" true
    (not (Astring.String.is_infix ~affix:"\"obs\"" plain));
  let j = Report.json_of_sweep ~timings:false ~obs:(Obs.to_json (Obs.snapshot ())) reports in
  let contains sub = Astring.String.is_infix ~affix:sub j in
  Alcotest.(check bool) "wrapped object" true (j.[0] = '{');
  Alcotest.(check bool) "reports key" true (contains "\"reports\"");
  Alcotest.(check bool) "obs key" true (contains "\"obs\"");
  Alcotest.(check bool) "solver counters inside" true (contains "simplex.pivots")

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "timer basics" `Quick test_timer_basics;
          Alcotest.test_case "snapshot sorted; reset" `Quick test_snapshot_sorted_and_reset;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
      ( "histograms",
        [
          Alcotest.test_case "percentiles on a known distribution" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "timer feeds its histogram" `Quick test_timer_feeds_histogram;
          Alcotest.test_case "snapshot diff" `Quick test_diff;
          Alcotest.test_case "reset clears buckets" `Quick test_reset_clears_histograms;
          Alcotest.test_case "pp formatting" `Quick test_pp_format;
          Alcotest.test_case "json percentile fields" `Quick test_json_histogram_fields;
        ] );
      ( "gauges",
        [
          Alcotest.test_case "set/add, watermarks, rewind" `Quick test_gauge_basics;
          Alcotest.test_case "diff keeps levels; json shape" `Quick test_gauge_diff_and_json;
        ] );
      ( "log",
        [
          Alcotest.test_case "jsonl sink, fields, correlation" `Quick test_log_jsonl_sink;
          Alcotest.test_case "level parsing and gating" `Quick test_log_levels;
        ] );
      ( "edges",
        [
          Alcotest.test_case "zero- and single-sample histograms" `Quick
            test_histogram_zero_and_single;
          Alcotest.test_case "saturating sum" `Quick test_histogram_saturating_sum;
          Alcotest.test_case "diff across a registry reset" `Quick test_diff_across_reset;
          Alcotest.test_case "name escaping, all bytes" `Quick test_name_escaping_all_bytes;
          qcheck_name_roundtrip;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "counters under Pool.map" `Quick test_counter_under_pool_concurrency;
          Alcotest.test_case "record_max under Pool.map" `Quick
            test_record_max_under_pool_concurrency;
          Alcotest.test_case "timers under Pool.map" `Quick test_timer_under_pool_concurrency;
          Alcotest.test_case "histograms under Pool.map" `Quick
            test_histogram_under_pool_concurrency;
          Alcotest.test_case "gauges under Pool.map" `Quick test_gauge_under_pool_concurrency;
        ] );
      ( "engine",
        [
          Alcotest.test_case "sweep instrumentation" `Quick test_engine_instrumentation;
          Alcotest.test_case "json_of_sweep obs section" `Quick test_json_of_sweep_obs_section;
        ] );
    ]

(* Compare a freshly generated BENCH_engine.json against a committed
   baseline and flag regressions.

     dune exec bench/compare.exe -- bench/baseline/BENCH_engine.json BENCH_engine.json
     dune exec bench/compare.exe -- --strict --time-threshold 0.5 OLD NEW
     dune exec bench/compare.exe -- --strict --only E18 OLD NEW
     dune exec bench/compare.exe -- --strict --only E18 --gate-counters simplex.solves OLD NEW

   Checks, per experiment id:
     - wall time: NEW more than (1 + threshold) x OLD seconds is a
       TIME REGRESSION (default threshold 0.25; timing noise on shared CI
       runners is real, so CI runs this warn-only by default);
     - words_moved: any headline number that changed at all is a
       METRIC CHANGE — these are exact counters from a deterministic
       simulator, so any drift means the model or the tiling changed.
       Labels ending in "_ms" or "_ratio" are exempt: those carry
       measured wall times (queue-wait percentiles and their speedups),
       which legitimately differ run to run — gate them with
       --gate-ratio instead;
     - presence: experiments that appear on only one side are reported.

   --gate-timers NAME1,NAME2 additionally compares the named aggregate
   obs timers (obs.timers.<name>.seconds) between the two files: a timer
   missing on either side, or slower than (1 + threshold) x baseline, is
   a finding. This is the hot-path performance gate — the shared-tile
   search and the cache-simulator executor are gated this way so a
   regression in either fails CI even when no single experiment's wall
   time trips the per-experiment check.

   --gate-counters NAME1,NAME2 compares the named aggregate obs counters
   (obs.counters.<name>) with zero tolerance: a counter missing from the
   NEW file, or above its baseline value, is a finding. Counters count
   the work itself (LP solves, pivots, search nodes, simulated accesses),
   so unlike a timer they do not move with the machine's load; keep
   scheduling-dependent counters (pool.*, serve.*, memo hits,
   watermarks) out of this gate.

   --gate-ratio EXP:LABEL:MIN (repeatable) asserts that experiment EXP
   in the NEW file carries words_moved label LABEL with value >= MIN —
   the gate for measured speedup ratios (e.g. E19's analytic-class
   queue-wait improvement), which the equality check deliberately
   ignores. A missing experiment, missing label, or value below MIN is
   a finding.

   Exit status is 0 unless --strict is given, in which case any finding
   makes it 1.

   Field tolerance: comparison reads only "v", "experiments", and (under
   --gate-timers / --gate-counters) obs.timers.<name>.seconds and
   obs.counters.<name>. Everything else in the
   envelope is deliberately ignored so the bench JSON can grow without
   breaking old baselines — in particular the "ts" write timestamp and
   the obs "gauges" section (point-in-time levels, meaningless to diff
   across runs) added with the telemetry exporter. *)

type experiment = { title : string; seconds : float; words : (string * float) list }

(* Measured-time labels: exact byte-equality against a baseline is
   meaningless for these, so the METRIC checks skip them on both sides.
   Use --gate-ratio to bound them instead. *)
let measured_label label =
  let has_suffix s = String.length label >= String.length s
    && String.sub label (String.length label - String.length s) (String.length s) = s
  in
  has_suffix "_ms" || has_suffix "_ratio"

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

(* The wire schema this tool understands; keep in sync with
   Report.schema_version (not referenced directly so compare keeps its
   jsonlite-only dependency footprint). *)
let schema_version = 1.0

let load_json path =
  match Jsonlite.of_file path with
  | Error msg -> die "%s: %s" path msg
  | Ok json ->
    (match Jsonlite.num_member "v" json with
    | Some v when v = schema_version -> ()
    | Some v -> die "%s: unsupported schema version %g (want %g)" path v schema_version
    | None -> die "%s: missing \"v\" schema-version field" path);
    json

(* obs.timers.<name>.seconds, or None when absent. *)
let timer_seconds json name =
  Option.bind (Jsonlite.member "obs" json) (fun obs ->
    Option.bind (Jsonlite.member "timers" obs) (fun timers ->
      Option.bind (Jsonlite.member name timers) (Jsonlite.num_member "seconds")))

(* obs.counters.<name>, or None when absent. *)
let counter_value json name =
  Option.bind (Jsonlite.member "obs" json) (fun obs ->
    Option.bind (Jsonlite.member "counters" obs) (Jsonlite.num_member name))

let experiments_of path json =
  let exps =
      match Jsonlite.list_member "experiments" json with
      | Some l -> l
      | None -> die "%s: no \"experiments\" array" path
    in
    List.filter_map
      (fun e ->
        match Jsonlite.str_member "experiment" e with
        | None -> None
        | Some id ->
          let words =
            match Jsonlite.member "words_moved" e with
            | Some (Jsonlite.Obj kvs) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun n -> (k, n)) (Jsonlite.to_num v))
                kvs
            | _ -> []
          in
          Some
            ( id,
              {
                title = Option.value ~default:"" (Jsonlite.str_member "title" e);
                seconds = Option.value ~default:0.0 (Jsonlite.num_member "seconds" e);
                words;
              } ))
      exps

let () =
  let strict = ref false in
  let threshold = ref 0.25 in
  let only = ref [] in
  let gate_timers = ref [] in
  let gate_counters = ref [] in
  let gate_ratios = ref [] in
  let paths = ref [] in
  let rec parse_args = function
    | [] -> ()
    | "--strict" :: rest ->
      strict := true;
      parse_args rest
    | "--time-threshold" :: v :: rest ->
      (match float_of_string_opt v with
      | Some t when t >= 0.0 -> threshold := t
      | _ -> die "--time-threshold: expected a non-negative number, got %S" v);
      parse_args rest
    | "--only" :: ids :: rest ->
      only := !only @ String.split_on_char ',' ids;
      parse_args rest
    | "--gate-timers" :: names :: rest ->
      gate_timers := !gate_timers @ String.split_on_char ',' names;
      parse_args rest
    | "--gate-counters" :: names :: rest ->
      gate_counters := !gate_counters @ String.split_on_char ',' names;
      parse_args rest
    | "--gate-ratio" :: spec :: rest ->
      (match String.split_on_char ':' spec with
      | [ exp; label; min_s ] -> (
        match float_of_string_opt min_s with
        | Some m -> gate_ratios := !gate_ratios @ [ (exp, label, m) ]
        | None -> die "--gate-ratio: bad minimum %S in %S" min_s spec)
      | _ -> die "--gate-ratio: expected EXP:LABEL:MIN, got %S" spec);
      parse_args rest
    | a :: _ when String.length a > 0 && a.[0] = '-' -> die "unknown option %s" a
    | p :: rest ->
      paths := p :: !paths;
      parse_args rest
  in
  parse_args (List.tl (Array.to_list Sys.argv));
  let base_path, new_path =
    match List.rev !paths with
    | [ b; n ] -> (b, n)
    | _ ->
      die
        "usage: compare [--strict] [--time-threshold T] [--only E1,E2] [--gate-timers \
         T1,T2] [--gate-counters C1,C2] [--gate-ratio EXP:LABEL:MIN] BASELINE.json NEW.json"
  in
  (* --only narrows the comparison to the named experiment ids (repeatable,
     comma-separable) — the CI gate on the plan-layer experiment uses this
     to be strict about E18 without being strict about timing noise
     elsewhere. *)
  let restrict exps =
    if !only = [] then exps else List.filter (fun (id, _) -> List.mem id !only) exps
  in
  let base_json = load_json base_path and new_json = load_json new_path in
  let base = restrict (experiments_of base_path base_json)
  and fresh = restrict (experiments_of new_path new_json) in
  (if !only <> [] then
     List.iter
       (fun id ->
         if not (List.mem_assoc id base || List.mem_assoc id fresh) then
           die "--only %s: no such experiment in either file" id)
       !only);
  let findings = ref 0 in
  let report fmt =
    incr findings;
    Printf.printf fmt
  in
  List.iter
    (fun (id, b) ->
      match List.assoc_opt id fresh with
      | None -> report "MISSING      %-4s dropped from %s (%s)\n" id new_path b.title
      | Some n ->
        (* Experiments under 50ms are dominated by scheduler noise; only
           the heavyweight simulations carry a meaningful wall time. *)
        if b.seconds > 0.05 && n.seconds > (1.0 +. !threshold) *. b.seconds then
          report "TIME REGRESSION %-4s %.3fs -> %.3fs (%+.0f%%, threshold +%.0f%%)  %s\n" id
            b.seconds n.seconds
            (100.0 *. ((n.seconds /. b.seconds) -. 1.0))
            (100.0 *. !threshold) b.title;
        List.iter
          (fun (label, bw) ->
            if not (measured_label label) then
              match List.assoc_opt label n.words with
              | None -> report "METRIC MISSING %-4s %S dropped\n" id label
              | Some nw ->
                if nw <> bw then
                  report "METRIC CHANGE  %-4s %S: %.17g -> %.17g\n" id label bw nw)
          b.words;
        List.iter
          (fun (label, _) ->
            if (not (measured_label label)) && not (List.mem_assoc label b.words) then
              report "METRIC NEW     %-4s %S appeared\n" id label)
          n.words)
    base;
  List.iter
    (fun (id, n) ->
      if not (List.mem_assoc id base) then
        report "NEW          %-4s not in baseline (%s)\n" id n.title)
    fresh;
  List.iter
    (fun name ->
      match (timer_seconds base_json name, timer_seconds new_json name) with
      | None, _ -> report "TIMER MISSING  %S not in baseline %s\n" name base_path
      | _, None -> report "TIMER MISSING  %S not in %s\n" name new_path
      | Some b, Some n ->
        if n > (1.0 +. !threshold) *. b then
          report "TIMER REGRESSION %S: %.3fs -> %.3fs (%+.0f%%, threshold +%.0f%%)\n" name b
            n
            (100.0 *. ((n /. b) -. 1.0))
            (100.0 *. !threshold)
        else
          Printf.printf "gate ok: timer %S %.3fs -> %.3fs (%+.0f%%)\n" name b n
            (100.0 *. ((n /. b) -. 1.0)))
    !gate_timers;
  List.iter
    (fun name ->
      match (counter_value base_json name, counter_value new_json name) with
      | None, _ -> report "COUNTER MISSING %S not in baseline %s\n" name base_path
      | _, None -> report "COUNTER MISSING %S not in %s\n" name new_path
      | Some b, Some n ->
        if n > b then report "COUNTER REGRESSION %S: %.17g -> %.17g\n" name b n
        else Printf.printf "gate ok: counter %S %.17g -> %.17g\n" name b n)
    !gate_counters;
  (* Ratio gates read only the NEW file: they bound this run's measured
     speedups, not a diff against the baseline's machine. *)
  let all_fresh = experiments_of new_path new_json in
  List.iter
    (fun (exp, label, min_v) ->
      match List.assoc_opt exp all_fresh with
      | None -> report "RATIO GATE     %-4s missing from %s\n" exp new_path
      | Some e -> (
        match List.assoc_opt label e.words with
        | None -> report "RATIO GATE     %-4s has no %S label\n" exp label
        | Some v ->
          if v < min_v then
            report "RATIO GATE     %-4s %S: %.2f below minimum %.2f\n" exp label v min_v
          else Printf.printf "gate ok: %s %S %.2f >= %.2f\n" exp label v min_v))
    !gate_ratios;
  let total = List.length fresh in
  if !findings = 0 then
    Printf.printf "compare: OK — %d experiments match %s (times within +%.0f%%)\n" total
      base_path (100.0 *. !threshold)
  else
    Printf.printf "compare: %d finding(s) across %d experiments (baseline %s)\n" !findings
      total base_path;
  exit (if !findings > 0 && !strict then 1 else 0)

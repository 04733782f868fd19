(* End-to-end smoke tests of the installed CLI binary: every subcommand
   runs, exits 0 on valid input, exits nonzero with a diagnostic on
   invalid input. *)

let cli = "../bin/tilings.exe"

let run args =
  let cmd = Printf.sprintf "%s %s 2>&1" cli args in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 512 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED c -> c | _ -> -1 in
  (code, Buffer.contents buf)

let check_ok name args fragments =
  let code, out = run args in
  if code <> 0 then Alcotest.failf "%s: exit %d\n%s" name code out;
  List.iter
    (fun f ->
      if not (Astring.String.is_infix ~affix:f out) then
        Alcotest.failf "%s: output missing %S\n%s" name f out)
    fragments

let check_fails name args fragment =
  let code, out = run args in
  if code = 0 then Alcotest.failf "%s: expected failure, got success\n%s" name out;
  if not (Astring.String.is_infix ~affix:fragment out) then
    Alcotest.failf "%s: diagnostic missing %S\n%s" name fragment out

(* A typed refusal: the stable wire code in the diagnostic and the
   code's own exit status (Engine_error.exit_code). *)
let check_typed name args ~exit ~code =
  let got, out = run args in
  if got <> exit then Alcotest.failf "%s: expected exit %d, got %d\n%s" name exit got out;
  if not (Astring.String.is_infix ~affix:(Printf.sprintf "[%s]" code) out) then
    Alcotest.failf "%s: diagnostic missing [%s]\n%s" name code out

let test_presets () = check_ok "presets" "presets" [ "matmul"; "nbody"; "mttkrp" ]

let test_analyze () =
  check_ok "analyze preset" "analyze -p matvec -m 1024" [ "lower bound"; "tile" ];
  check_ok "analyze dsl"
    "analyze -k 'i = 64, j = 64, k = 4 : C[i,k] += A[i,j] * B[j,k]' -m 512"
    [ "lower bound"; "attainment" ]

let test_lower_bound () =
  check_ok "lower-bound" "lower-bound -p matmul -m 4096" [ "tile-size cap"; "witness" ]

let test_tile () =
  check_ok "tile" "tile -p matmul -m 4096" [ "LP (5.1)"; "lambda"; "shared cache" ]

let test_closed_form () =
  check_ok "closed-form" "closed-form -p nbody" [ "min("; "M^f" ]

(* 6 arrays x 20 loops: past the plan/closed-form enumeration budget *)
let big_dsl =
  "'a=2,b=2,c=2,d=2,e=2,f=2,g=2,h=2,i=2,j=2,k=2,l=2,m=2,n=2,o=2,p=2,q=2,r=2,s=2,t=2 : \
   Z[b,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t] += A[a,c,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t] * \
   B[a,b,d,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t] * C[a,b,c,e,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t] * \
   D[a,b,c,d,f,g,h,i,j,k,l,m,n,o,p,q,r,s,t] * E[a,b,c,d,e,g,h,i,j,k,l,m,n,o,p,q,r,s,t]'"

let test_compile () =
  check_ok "compile preset" "compile -p matmul"
    [ "{\"v\":1,\"plans\":["; "\"shape\":\"d=3;"; "\"levels\":[" ];
  check_ok "compile dsl" "compile -k 'i = 16, j = 16 : A[i] += B[i,j]'"
    [ "\"shape\":\"d=2;" ];
  let tmp = Filename.temp_file "cli_plans" ".json" in
  check_ok "compile all to file" (Printf.sprintf "compile --all -o %s" tmp) [ "plans ->" ];
  let ic = open_in tmp in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove tmp;
  if not (Astring.String.is_prefix ~affix:"{\"v\":1,\"plans\":[" contents) then
    Alcotest.failf "plan bundle envelope wrong: %s" (String.sub contents 0 40);
  check_fails "compile all + preset" "compile --all -p matmul" "alone";
  (* the oversized refusal carries the typed code and its own exit status *)
  let code, out = run (Printf.sprintf "compile -k %s" big_dsl) in
  if code <> 11 then Alcotest.failf "oversized compile: expected exit 11, got %d\n%s" code out;
  if not (Astring.String.is_infix ~affix:"shape_too_large" out) then
    Alcotest.failf "oversized compile: missing typed code\n%s" out

let test_closed_form_too_large () =
  (* the one-shot closed-form path routes the same refusal through the
     typed error map instead of a generic usage error *)
  let code, out = run (Printf.sprintf "closed-form -k %s" big_dsl) in
  if code <> 11 then Alcotest.failf "closed-form: expected exit 11, got %d\n%s" code out;
  if not (Astring.String.is_infix ~affix:"shape_too_large" out) then
    Alcotest.failf "closed-form: missing typed code\n%s" out

let test_regions () = check_ok "regions" "regions -p nbody" [ "is optimal where"; "witness" ]

(* Every preset's closed form and critical regions, byte for byte: the
   golden file pins the piece list, its order and the region witnesses. *)
let test_closed_form_regions_golden () =
  let out =
    List.concat_map
      (fun (name, _) ->
        List.map
          (fun cmd ->
            let code, text = run (Printf.sprintf "%s -p %s" cmd name) in
            Printf.sprintf "== %s -p %s ==\n%sexit %d\n" cmd name text code)
          [ "closed-form"; "regions" ])
      (Kernels.all ())
  in
  Alcotest.(check string) "closed-form and regions output"
    (In_channel.with_open_bin "golden/closed_form_regions.txt" In_channel.input_all)
    (String.concat "" out)

(* Every preset through the six per-kernel report commands, byte for
   byte: pins the analysis, tile, simulation, hierarchy and codegen text. *)
let test_cli_presets_golden () =
  let out =
    List.concat_map
      (fun (name, _) ->
        List.map
          (fun (sub, opts) ->
            let cmd = Printf.sprintf "%s -p %s %s" sub name opts in
            let code, text = run cmd in
            Printf.sprintf "== %s ==\n%sexit %d\n" cmd text code)
          [
            ("analyze", "-m 1024");
            ("lower-bound", "-m 1024");
            ("tile", "-m 1024");
            ("simulate", "-m 1024");
            ("hierarchy", "--levels 512,16384");
            ("codegen", "-m 1024");
          ])
      (Kernels.all ())
  in
  Alcotest.(check string) "per-preset command output"
    (In_channel.with_open_bin "golden/cli_presets.txt" In_channel.input_all)
    (String.concat "" out)

let test_simulate () =
  check_ok "simulate" "simulate -p matvec -m 512 --schedule optimal --policy lru"
    [ "words moved"; "ratio" ];
  check_ok "simulate opt policy" "simulate -p outer_product -m 256 --policy opt"
    [ "OPT"; "words moved" ]

let test_hierarchy () =
  check_ok "hierarchy" "hierarchy -p matvec --levels 128,1024"
    [ "level 1"; "level 2"; "traffic L1"; "memory" ]

let test_partition () =
  check_ok "partition" "partition -k matmul -p 64 -M 4096"
    [
      {|{"v":2,"partition":{|};
      {|"grid":[4,4,4]|};
      {|"regime":"memory_independent"|};
      {|"gather_words":"768"|};
    ];
  (* the Pool-simulated schedule agrees with the model exactly *)
  check_ok "partition --validate" "partition -k matmul -p 64 -M 4096 --validate"
    [ {|"validation":{"matches":true,"simulated_words":"768"|} ];
  (* a constrained memory budget flips the regime *)
  check_ok "partition memory-dependent" "partition -k matmul -p 64 -M 24"
    [ {|"regime":"memory_dependent"|} ];
  check_ok "partition alpha-beta" "partition -k matmul -p 64 -M 4096 --net 100,1"
    [ {|"net":{"alpha":"100","beta":"1"}|}; {|"messages":6|} ];
  (* typed failures carry their own exit codes *)
  let code, out = run "partition -k 'i = 7, j = 7 : A[i] += B[i,j]' -p 11 -M 64" in
  if code <> 12 then Alcotest.failf "unfactorable p: expected exit 12, got %d\n%s" code out;
  if not (Astring.String.is_infix ~affix:"unfactorable_p" out) then
    Alcotest.failf "unfactorable p: missing typed code\n%s" out;
  let code, out = run "partition -k matmul -p 8 --net nonsense" in
  if code <> 13 then Alcotest.failf "bad net: expected exit 13, got %d\n%s" code out;
  if not (Astring.String.is_infix ~affix:"network_model_invalid" out) then
    Alcotest.failf "bad net: missing typed code\n%s" out

let test_codegen () =
  check_ok "codegen c" "codegen -p nbody -m 256 --lang c" [ "void nbody_tiled"; "for (int" ];
  check_ok "codegen ocaml" "codegen -p nbody -m 256 --lang ocaml" [ "let nbody_tiled"; "done" ];
  check_ok "codegen untiled" "codegen -p nbody --untiled" [ "void nbody(" ]

let test_sweep () =
  check_ok "sweep json" "sweep -p matvec -m 64,256"
    [ "{\"v\":1,\"reports\":["; "\"kernel\""; "\"lower_bound_words\"" ]

let test_metrics () =
  (* sweep --metrics wraps the JSON and embeds the obs snapshot *)
  check_ok "sweep metrics" "sweep -p matvec -m 64,256 --schedules optimal --metrics"
    [ "\"reports\""; "\"obs\""; "\"counters\""; "simplex.pivots"; "memo."; "cachesim.L1.hits" ];
  (* text-mode subcommands append the human-readable table *)
  check_ok "analyze metrics" "analyze -p matvec -m 1024 --metrics"
    [ "counters:"; "timers:"; "simplex.pivots"; "pipeline.analysis" ];
  (* without the flag, the versioned envelope carries no obs section *)
  let code, out = run "sweep -p matvec -m 64" in
  if code <> 0 then Alcotest.failf "sweep: exit %d\n%s" code out;
  if Astring.String.is_infix ~affix:"\"obs\"" out then
    Alcotest.failf "sweep without --metrics must not emit obs\n%s" out

let test_profile () =
  (* preset shorthands and cmdliner's prefix matching: "mm" -> matmul,
     "--m" -> --mem (profile deliberately has no --metrics) *)
  check_ok "profile shorthand" "profile mm --m 4096 --iters 5"
    [ "profile: matmul"; "iteration"; "p50"; "p90"; "p99"; "timers:" ];
  check_ok "profile prefix" "profile matv --iters 3" [ "profile: matvec" ];
  check_ok "profile dsl" "profile 'i = 16, j = 16 : A[i] += B[i,j]' --iters 2"
    [ "iteration" ];
  check_ok "profile cold with sim"
    "profile outer_product --m 256 --iters 3 --cold --schedule optimal"
    [ "cold: caches reset"; "with simulation"; "executor.run" ];
  check_fails "profile unknown" "profile nosuch" "unknown kernel";
  check_fails "profile ambiguous" "profile mat" "ambiguous kernel";
  check_fails "profile bad iters" "profile mm --iters 0" "at least one iteration"

let test_trace_flag () =
  let tmp = Filename.temp_file "cli_trace" ".json" in
  check_ok "sweep with trace"
    (Printf.sprintf "sweep -p matvec -m 64,128 --jobs 2 --trace %s" tmp)
    [ "\"kernel\""; "trace:"; "spans" ];
  let ic = open_in tmp in
  let n = in_channel_length ic in
  let contents = really_input_string ic n in
  close_in ic;
  Sys.remove tmp;
  List.iter
    (fun f ->
      if not (Astring.String.is_infix ~affix:f contents) then
        Alcotest.failf "trace file missing %S" f)
    [ "\"traceEvents\""; "\"ph\":\"X\""; "thread_name"; "pipeline.analysis" ];
  (* failed invocations must not leave a trace file behind *)
  let tmp2 = Filename.temp_file "cli_trace2" ".json" in
  Sys.remove tmp2;
  check_fails "trace on failure" (Printf.sprintf "analyze --trace %s" tmp2) "kernel is required";
  if Sys.file_exists tmp2 then begin
    Sys.remove tmp2;
    Alcotest.fail "trace file written despite command failure"
  end

let test_overflow_guards () =
  (* 2^21-cubed bounds: exact guard must reject simulation with the true
     iteration count rather than wrap negative and accept *)
  check_fails "simulate overflow"
    "simulate -k 'i = 2097152, j = 2097152, k = 2097152 : C[i,j,k] += A[i,j]' -m 1024"
    "9223372036854775808";
  (* analysis-only paths still work at these bounds, and partition
     reports the exact (past-max_int) communication volume *)
  check_ok "partition overflow"
    "partition -k 'i = 2097152, j = 2097152, k = 2097152 : C[i,j,k] += A[i,j]' --procs 1"
    [ {|"gather_words":"9223376434901286912"|} ]

(* Pipe [lines] into `tilings serve`, return the response lines. The
   requests (a few KB) fit in the pipe buffer, so writing everything
   before reading cannot deadlock. *)
let run_serve args lines =
  let cmd = Printf.sprintf "%s serve %s 2>/dev/null" cli args in
  let ic, oc = Unix.open_process cmd in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc;
  let out = ref [] in
  (try
     while true do
       out := input_line ic :: !out
     done
   with End_of_file -> ());
  ignore (Unix.close_process (ic, oc));
  List.rev !out

let test_serve_pipe () =
  (* one daemon, >=100 mixed preset requests, responses in arrival order *)
  let presets = [| ("mm", 64); ("conv", 128); ("nbody", 256); ("matvec", 64) |] in
  let n = 120 in
  let reqs =
    List.init n (fun i ->
      let k, m = presets.(i mod Array.length presets) in
      Printf.sprintf "{\"id\":\"r%d\",\"kernel\":%S,\"m\":%d}" i k m)
  in
  let out = run_serve "" reqs in
  if List.length out <> n then
    Alcotest.failf "serve: %d requests, %d responses" n (List.length out);
  List.iteri
    (fun i line ->
      let id = Printf.sprintf "\"id\":\"r%d\"" i in
      if not (Astring.String.is_infix ~affix:id line) then
        Alcotest.failf "response %d out of arrival order: %s" i line;
      if not (Astring.String.is_infix ~affix:"\"ok\":true" line) then
        Alcotest.failf "response %d not ok: %s" i line)
    out

let test_serve_matches_sweep () =
  (* the daemon's report is byte-identical to the one-shot CLI's *)
  let code, sweep = run "sweep -p matmul -m 512" in
  if code <> 0 then Alcotest.failf "sweep: exit %d\n%s" code sweep;
  let sweep = String.trim sweep in
  let pre = "{\"v\":1,\"reports\":[" in
  if not (Astring.String.is_prefix ~affix:pre sweep) then
    Alcotest.failf "sweep envelope changed: %s" sweep;
  let report =
    String.sub sweep (String.length pre) (String.length sweep - String.length pre - 2)
  in
  match run_serve "" [ "{\"id\":\"a\",\"op\":\"analyze\",\"kernel\":\"matmul\",\"m\":512}" ] with
  | [ line ] ->
    let expected =
      Printf.sprintf "{\"v\":1,\"id\":\"a\",\"ok\":true,\"report\":%s}" report
    in
    Alcotest.(check string) "byte-identical report" expected line
  | out -> Alcotest.failf "expected 1 response, got %d" (List.length out)

let test_serve_matches_partition () =
  (* the daemon's partition payload is byte-identical to the one-shot
     CLI's: both embed Partition_solve.to_json verbatim *)
  let code, cli_out = run "partition -k matmul -p 64 -M 4096" in
  if code <> 0 then Alcotest.failf "partition: exit %d\n%s" code cli_out;
  let cli_out = String.trim cli_out in
  let pre = {|{"v":2,"partition":|} in
  if not (Astring.String.is_prefix ~affix:pre cli_out) then
    Alcotest.failf "partition envelope changed: %s" cli_out;
  let payload =
    String.sub cli_out (String.length pre) (String.length cli_out - String.length pre - 1)
  in
  match
    run_serve "" [ {|{"v":2,"id":"p","op":"partition","kernel":"matmul","p":64,"m":4096}|} ]
  with
  | [ line ] ->
    let expected =
      Printf.sprintf {|{"v":2,"id":"p","ok":true,"partition":%s}|} payload
    in
    Alcotest.(check string) "byte-identical partition payload" expected line
  | out -> Alcotest.failf "expected 1 response, got %d" (List.length out)

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

let test_serve_golden () =
  let out = run_serve "" (read_lines "golden/serve_requests.ndjson") in
  Alcotest.(check (list string))
    "transcript byte-identical" (read_lines "golden/serve_transcript.ndjson") out

let test_serve_plans () =
  (* plans harvested by `compile` preload another daemon; plan-served
     responses must be byte-identical to the LP-served golden transcript
     (the repeat-shape acceptance gate, end to end) *)
  let tmp = Filename.temp_file "cli_plans" ".json" in
  let code, out = run (Printf.sprintf "compile --all -o %s" tmp) in
  if code <> 0 then Alcotest.failf "compile --all: exit %d\n%s" code out;
  let preloaded =
    run_serve (Printf.sprintf "--plans %s" tmp) (read_lines "golden/serve_requests.ndjson")
  in
  Sys.remove tmp;
  Alcotest.(check (list string)) "plans-preloaded transcript byte-identical"
    (read_lines "golden/serve_transcript.ndjson")
    preloaded;
  check_fails "missing plans file" "serve --plans /nonexistent/plans.json" "--plans";
  (* a bundle is read as a cache snapshot; one malformed plan in it
     fails startup rather than serving with part of the bundle *)
  let bad = Filename.temp_file "cli_bad_plans" ".json" in
  Out_channel.with_open_bin bad (fun oc ->
    output_string oc {|{"v":1,"plans":[{"shape":"d=2;garbage"}]}|});
  check_typed "malformed plan in bundle"
    (Printf.sprintf "serve --plans %s < /dev/null" bad)
    ~exit:8 ~code:"invalid_request";
  Sys.remove bad

(* The value of counter [name] in an [Obs.pp] dump split into lines. *)
let counter_value name lines =
  List.find_map
    (fun l ->
      match List.filter (( <> ) "") (String.split_on_char ' ' l) with
      | [ n; v ] when n = name -> int_of_string_opt (String.concat "" (String.split_on_char ',' v))
      | _ -> None)
    lines

let test_serve_metrics () =
  (* serve --metrics prints the serve.* section to stderr after drain *)
  let cmd = Printf.sprintf "echo '%s' | %s serve --metrics 2>&1 >/dev/null"
      "{\"kernel\":\"matvec\",\"m\":64}" cli
  in
  let ic = Unix.open_process_in cmd in
  let buf = Buffer.create 512 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  ignore (Unix.close_process_in ic);
  let err = Buffer.contents buf in
  let lines = String.split_on_char '\n' err in
  List.iter
    (fun name ->
      if counter_value name lines <> Some 1 then
        Alcotest.failf "serve --metrics stderr: %s is not 1\n%s" name err)
    [ "serve.requests"; "serve.responses"; "serve.batches" ];
  if counter_value "serve.pool_jobs" lines = None then
    Alcotest.failf "serve --metrics stderr missing serve.pool_jobs\n%s" err;
  if not (Astring.String.is_infix ~affix:"serve: pool:" err) then
    Alcotest.failf "serve --metrics stderr missing the pool line\n%s" err

let test_serve_telemetry_and_top () =
  (* end-to-end: serve writes a telemetry trail and a request log; the
     log ids match the response ids byte-for-byte; `top --once` renders
     a frame from the trail *)
  let trail = Filename.temp_file "cli_telemetry" ".jsonl" in
  let log = Filename.temp_file "cli_servelog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove trail; Sys.remove log) @@ fun () ->
  let out =
    run_serve
      (Printf.sprintf "--telemetry %s --telemetry-interval 0.05 --log %s --slow-ms 0" trail log)
      [ {|{"id":"t0","kernel":"matvec","m":64}|}; {|{"kernel":"mm","m":64}|} ]
  in
  Alcotest.(check int) "two responses" 2 (List.length out);
  let snaps = List.filter (fun l -> l <> "") (read_lines trail) in
  Alcotest.(check bool)
    (Printf.sprintf "at least two telemetry snapshots (got %d)" (List.length snaps))
    true (List.length snaps >= 2);
  List.iter
    (fun l ->
      match Jsonlite.parse l with
      | Error msg -> Alcotest.failf "telemetry line unparseable (%s): %s" msg l
      | Ok j ->
        Alcotest.(check bool) "ts present" true (Jsonlite.num_member "ts" j <> None);
        Alcotest.(check bool) "obs present" true (Jsonlite.member "obs" j <> None))
    snaps;
  (* request-correlated log: ids match responses byte-for-byte *)
  let log_ids =
    List.filter_map
      (fun l ->
        match Jsonlite.parse l with
        | Ok j when Jsonlite.str_member "event" j = Some "serve.request" ->
          Jsonlite.str_member "id" j
        | _ -> None)
      (read_lines log)
  in
  let resp_ids =
    List.filter_map (fun l -> Jsonlite.str_member "id" (Result.get_ok (Jsonlite.parse l))) out
  in
  Alcotest.(check (list string)) "log ids = response ids" resp_ids log_ids;
  Alcotest.(check bool) "minted id for the id-less request" true
    (match resp_ids with [ _; m ] -> Astring.String.is_prefix ~affix:"srv-" m | _ -> false);
  (* slow log fired (threshold 0) with per-stage wall times *)
  Alcotest.(check bool) "slow-request log with stage deltas" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"serve.slow_request" l
                 && Astring.String.is_infix ~affix:"analysis_ms" l)
       (read_lines log));
  (* the dashboard reads the same trail *)
  check_ok "top --once" (Printf.sprintf "top %s --once" trail)
    [ "telemetry"; "serve.requests"; "serve.queue_depth" ];
  check_fails "top on a missing trail" "top /nonexistent/trail.jsonl --once" "cannot read"

let test_profile_telemetry () =
  let trail = Filename.temp_file "cli_prof" ".om" in
  Fun.protect ~finally:(fun () -> Sys.remove trail) @@ fun () ->
  check_ok "profile --telemetry"
    (Printf.sprintf "profile matvec --iters 2 --telemetry %s" trail)
    [ "profile: matvec" ];
  let text = String.concat "\n" (read_lines trail) in
  Alcotest.(check bool) "OpenMetrics exposition written" true
    (Astring.String.is_infix ~affix:"# TYPE tilings_" text);
  Alcotest.(check bool) "EOF terminator" true (Astring.String.is_suffix ~affix:"# EOF" text)

(* ---- multi-client daemon helpers --------------------------------- *)

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* Start `tilings serve <args>` in the background with stderr captured
   to a file, run [f ~err ~pid], then SIGTERM and reap. The daemon drains and
   exits 0 on SIGTERM; any other exit is a test failure. [after] then
   reads what the daemon wrote to stderr, [--metrics] included. *)
let with_daemon ?(after = fun ~stderr:_ -> ()) args f =
  let err = Filename.temp_file "cli_daemon" ".err" in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli
      (Array.of_list (cli :: "serve" :: args))
      devnull Unix.stdout err_fd
  in
  Unix.close err_fd;
  Unix.close devnull;
  let result =
    try Ok (f ~err ~pid) with e -> Error (e, Printexc.get_raw_backtrace ())
  in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] pid in
  let stderr_text () = String.concat "\n" (read_lines err) in
  let exit_check () =
    match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED c -> Alcotest.failf "daemon exited %d\n%s" c (stderr_text ())
    | _ -> Alcotest.failf "daemon killed abnormally\n%s" (stderr_text ())
  in
  Fun.protect ~finally:(fun () -> Sys.remove err) @@ fun () ->
  match result with
  | Ok v ->
    exit_check ();
    after ~stderr:(read_lines err);
    v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

let wait_for ?(timeout = 10.0) pred what =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match pred () with
    | Some v -> v
    | None ->
      if Unix.gettimeofday () -. t0 > timeout then
        Alcotest.failf "timed out waiting for %s" what;
      Unix.sleepf 0.02;
      go ()
  in
  go ()

let send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  if Unix.write fd b 0 (Bytes.length b) <> Bytes.length b then
    Alcotest.fail "short write to daemon"

(* Half-close the sending side, read the connection to EOF, split into
   lines. The daemon closes the connection after answering everything it
   read, so EOF here means the transcript is complete. *)
let finish_conn fd =
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
  in
  go ();
  Unix.close fd;
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Buffer.contents buf))

let test_serve_multi_client () =
  (* two clients interleaved on one Unix-socket daemon: each connection
     sees its own responses in its own arrival order, minted ids restart
     at srv-1 per connection, and every transcript is byte-identical to
     the one-shot pipe transport fed the same lines *)
  let dir = temp_dir "cli_sock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "d.sock" in
  with_daemon [ "--socket"; sock ] @@ fun ~err:_ ~pid:_ ->
  wait_for (fun () -> if Sys.file_exists sock then Some () else None) "socket file";
  let a_lines =
    [
      {|{"id":"a0","kernel":"matmul","m":512}|};
      {|{"kernel":"matvec","m":64}|};
      {|{"id":"a2","kernel":"nbody","m":256}|};
    ]
  and b_lines =
    [ {|{"kernel":"mm","m":64}|}; {|{"id":"b1","kernel":"conv","m":128}|} ]
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let a = connect () and b = connect () in
  (* interleave the writes across the two connections *)
  send_line a (List.nth a_lines 0);
  send_line b (List.nth b_lines 0);
  send_line a (List.nth a_lines 1);
  send_line b (List.nth b_lines 1);
  send_line a (List.nth a_lines 2);
  let a_out = finish_conn a in
  let b_out = finish_conn b in
  Alcotest.(check (list string)) "conn A byte-identical to one-shot"
    (run_serve "" a_lines) a_out;
  Alcotest.(check (list string)) "conn B byte-identical to one-shot"
    (run_serve "" b_lines) b_out

let test_serve_tcp () =
  (* --tcp 0 binds an ephemeral loopback port and announces it on
     stderr; a TCP client gets the same bytes as the pipe transport *)
  with_daemon [ "--tcp"; "0" ] @@ fun ~err ~pid:_ ->
  let port =
    wait_for
      (fun () ->
        List.find_map
          (fun l ->
            match Astring.String.cut ~sep:"listening on 127.0.0.1:" l with
            | Some (_, p) -> int_of_string_opt (String.trim p)
            | None -> None)
          (read_lines err))
      "tcp port announcement"
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = {|{"id":"t0","kernel":"matvec","m":64}|} in
  send_line fd req;
  Alcotest.(check (list string)) "tcp response = one-shot" (run_serve "" [ req ])
    (finish_conn fd)

let connect_unix sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let socket_daemon args f =
  let dir = temp_dir "cli_sock" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "d.sock" in
  let after = ref (fun ~stderr:_ -> ()) in
  with_daemon ~after:(fun ~stderr -> !after ~stderr) ("--socket" :: sock :: args)
  @@ fun ~err:_ ~pid ->
  wait_for (fun () -> if Sys.file_exists sock then Some () else None) "socket file";
  f ~connect:(fun () -> connect_unix sock) ~after ~pid

(* The one response line the connection has outstanding. *)
let read_response ?(timeout = 20.0) fd =
  let buf = Buffer.create 1024 and chunk = Bytes.create 4096 in
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match String.index_opt (Buffer.contents buf) '\n' with
    | Some i -> Buffer.sub buf 0 i
    | None ->
      let left = timeout -. (Unix.gettimeofday () -. t0) in
      if left <= 0.0 then Alcotest.fail "timed out waiting for a response";
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Alcotest.fail "daemon closed the connection before answering"
        | n -> Buffer.add_subbytes buf chunk 0 n));
      go ()
  in
  go ()

let readable fd = match Unix.select [ fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

(* Wait up to [timeout] seconds for [pid] to exit 0; one still running
   then is killed and fails the test. *)
let exits_cleanly ?(timeout = 20.0) pid what =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () -. t0 > timeout ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.failf "%s: still running after %.0f s" what timeout
    | 0, _ ->
      Unix.sleepf 0.02;
      go ()
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED c -> Alcotest.failf "%s: exit %d" what c
    | _ -> Alcotest.failf "%s: killed by a signal" what
  in
  go ()

let test_serve_broken_stdout () =
  (* `serve < many-lines | head -n 1`: the reader of stdout goes away
     after one line, far more output is pending than a pipe holds, and
     serve must see its one connection dead and return *)
  let input = Filename.temp_file "cli_many" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove input) @@ fun () ->
  Out_channel.with_open_bin input (fun oc ->
    for i = 1 to 1000 do
      Printf.fprintf oc {|{"id":"r%d","kernel":"matvec","m":64}|} i;
      output_char oc '\n'
    done);
  let stdin_fd = Unix.openfile input [ Unix.O_RDONLY ] 0 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process cli [| cli; "serve"; "--jobs"; "2" |] stdin_fd out_w devnull
  in
  List.iter Unix.close [ stdin_fd; devnull; out_w ];
  let first = read_response out_r in
  Unix.close out_r;
  Alcotest.(check bool) ("first line answered: " ^ first) true
    (Astring.String.is_infix ~affix:{|"id":"r1"|} first);
  exits_cleanly pid "serve with a broken stdout"

let test_serve_pipe_sigterm () =
  (* --jobs 3 over a pipe that stays open: once idle, a SIGTERM (which
     any of the three domains' threads may catch) stops the reader and
     serve exits 0 without waiting for EOF *)
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid = Unix.create_process cli [| cli; "serve"; "--jobs"; "3" |] in_r out_w devnull in
  List.iter Unix.close [ in_r; out_w; devnull ];
  Fun.protect ~finally:(fun () -> Unix.close in_w; Unix.close out_r) @@ fun () ->
  let line = {|{"id":"t0","kernel":"matvec","m":64}|} ^ "\n" in
  ignore (Unix.write_substring in_w line 0 (String.length line));
  Alcotest.(check bool) "answered before the signal" true
    (Astring.String.is_infix ~affix:{|"id":"t0"|} (read_response out_r));
  Unix.sleepf 0.3;
  Unix.kill pid Sys.sigterm;
  exits_cleanly ~timeout:10.0 pid "serve --jobs 3 after SIGTERM"

(* Untiled LRU simulation of n^3 matmul points at a cache of 8 words:
   about a second at the default n = 160. *)
let heavy ?(n = 160) id =
  Printf.sprintf
    {|{"id":"%s","kernel":"i = %d, j = %d, k = %d : C[i,k] += A[i,j] * B[j,k]","m":8,"schedules":["untiled"],"policies":["lru"]}|}
    id n n n

let test_serve_no_head_of_line () =
  (* at --jobs 2 an analytic request on B is answered while A's
     simulation, sent first, is still running; a SIGTERM then still
     lets A's simulation finish and be answered before the daemon exits
     0 (checked by with_daemon) *)
  socket_daemon [ "--jobs"; "2" ] @@ fun ~connect ~after:_ ~pid ->
  let a = connect () and b = connect () in
  send_line a (heavy "a0");
  let b_req = {|{"id":"b0","kernel":"matvec","m":64}|} in
  send_line b b_req;
  let b_resp = read_response b in
  Alcotest.(check bool) "A still pending when B is answered" false (readable a);
  (* A's line was read no later than B's, so it is admitted: drain it *)
  Unix.kill pid Sys.sigterm;
  Alcotest.(check (list string)) "B's answer = one-shot" (run_serve "" [ b_req ])
    (b_resp :: finish_conn b);
  match finish_conn a with
  | [ l ] -> Alcotest.(check bool) "A answered ok" true (Astring.String.is_infix ~affix:{|"ok":true|} l)
  | ls -> Alcotest.failf "A: expected one response, got %d" (List.length ls)

let test_serve_pipelined_order () =
  (* lines pipelined on one connection, the heavy one first, come back in
     arrival order and byte-identical to the pipe transport, minted ids
     included *)
  socket_daemon [ "--jobs"; "2" ] @@ fun ~connect ~after:_ ~pid:_ ->
  let lines =
    [ heavy "p0"; {|{"kernel":"matvec","m":64}|}; {|{"id":"p2","kernel":"nbody","m":256}|};
      {|{"kernel":"mm","m":64}|} ]
  in
  let fd = connect () in
  List.iter (send_line fd) lines;
  Alcotest.(check (list string)) "arrival order, byte-identical" (run_serve "" lines)
    (finish_conn fd)

let test_serve_domains () =
  (* --jobs 1 spawns no domain; --jobs 3 spawns two, once, however many
     requests it serves *)
  let reqs = [ {|{"kernel":"matvec","m":64}|}; {|{"kernel":"mm","m":64}|} ] in
  let serve_two ~connect =
    let a = connect () and b = connect () in
    List.iter (send_line a) reqs;
    List.iter (send_line b) reqs;
    List.iter
      (fun fd -> Alcotest.(check int) "answered" 2 (List.length (finish_conn fd)))
      [ a; b ]
  in
  List.iter
    (fun (jobs, spawned) ->
      socket_daemon [ "--jobs"; string_of_int jobs; "--metrics" ]
      @@ fun ~connect ~after ~pid:_ ->
      serve_two ~connect;
      after :=
        fun ~stderr ->
          Alcotest.(check (option int))
            (Printf.sprintf "--jobs %d: serve.domains_spawned" jobs)
            (Some spawned)
            (counter_value "serve.domains_spawned" stderr);
          Alcotest.(check (option int)) "no pool domains" (Some 0)
            (counter_value "pool.domains_spawned" stderr))
    [ (1, 0); (3, 2) ]

let test_serve_overloaded () =
  (* --queue 1: while a simulation runs, three analytic lines wait on
     three connections. Whichever round reads the simulation, it has its
     class's seat; a round that reads more than one analytic line finds
     the analytic seat taken and answers overloaded with the line's id *)
  socket_daemon [ "--jobs"; "1"; "--queue"; "1" ] @@ fun ~connect ~after:_ ~pid:_ ->
  let conns =
    List.map
      (fun name ->
        let fd = connect () in
        (* a probe answer proves the daemon has accepted the connection *)
        send_line fd (Printf.sprintf {|{"id":"probe-%s","kernel":"matvec","m":64}|} name);
        ignore (read_response fd);
        (name, fd))
      [ "b"; "c"; "d" ]
  in
  let analytic id = Printf.sprintf {|{"id":"%s","kernel":"mm","m":64}|} id in
  let b = List.assoc "b" conns in
  send_line b (heavy "h");
  send_line (List.assoc "c" conns) (analytic "c1");
  send_line (List.assoc "d" conns) (analytic "d1");
  send_line b (analytic "b2");
  let out = List.map (fun (name, fd) -> (name, finish_conn fd)) conns in
  let id l = Jsonlite.str_member "id" (Result.get_ok (Jsonlite.parse l)) in
  let ok l = Astring.String.is_infix ~affix:{|"ok":true|} l in
  Alcotest.(check (list (option string))) "B in arrival order" [ Some "h"; Some "b2" ]
    (List.map id (List.assoc "b" out));
  Alcotest.(check bool) "the running simulation is answered" true
    (ok (List.hd (List.assoc "b" out)));
  let waiting = List.concat_map (fun (_, ls) -> ls) out |> List.filter (fun l -> id l <> Some "h") in
  Alcotest.(check int) "every waiting line answered" 3 (List.length waiting);
  let rejected = List.filter (fun l -> not (ok l)) waiting in
  Alcotest.(check bool) "at least one overloaded" true (rejected <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) ("overloaded, with its id: " ^ l) true
        (Astring.String.is_infix ~affix:{|"code":"overloaded"|} l
        && List.mem (id l) [ Some "c1"; Some "d1"; Some "b2" ]))
    rejected

let test_serve_drain_queued () =
  (* --jobs 1: three lines arrive while a simulation runs and are read in
     one round after it; the analytic one is claimed first, and a SIGTERM
     sent once it is answered still runs and answers the two simulations
     waiting behind it *)
  socket_daemon [ "--jobs"; "1" ] @@ fun ~connect ~after:_ ~pid ->
  let conns =
    List.map
      (fun name ->
        let fd = connect () in
        send_line fd (Printf.sprintf {|{"id":"probe-%s","kernel":"matvec","m":64}|} name);
        ignore (read_response fd);
        (name, fd))
      [ "a"; "b"; "c"; "d" ]
  in
  let fd name = List.assoc name conns in
  send_line (fd "a") (heavy "h0");
  (* h0 takes about a second: it is read and running well before the
     other three lines are sent *)
  Unix.sleepf 0.2;
  send_line (fd "b") (heavy ~n:120 "h1");
  send_line (fd "c") (heavy ~n:40 "h2");
  send_line (fd "d") {|{"id":"d0","kernel":"mm","m":64}|};
  let d0 = read_response (fd "d") in
  Alcotest.(check bool) "analytic line answered while simulations wait" false
    (readable (fd "b") || readable (fd "c"));
  Unix.kill pid Sys.sigterm;
  let id l = Jsonlite.str_member "id" (Result.get_ok (Jsonlite.parse l)) in
  Alcotest.(check (option string)) "d0" (Some "d0") (id d0);
  List.iter
    (fun (name, want) ->
      match finish_conn (fd name) with
      | [ l ] ->
        Alcotest.(check (option string)) (name ^ " answered") (Some want) (id l);
        Alcotest.(check bool) (want ^ " ok") true
          (Astring.String.is_infix ~affix:{|"ok":true|} l)
      | ls -> Alcotest.failf "%s: expected one response, got %d" name (List.length ls))
    [ ("a", "h0"); ("b", "h1"); ("c", "h2") ]

let test_serve_cache_dir () =
  (* cold boot fills the caches and snapshots them on drain; a warm boot
     from the same dir answers byte-identically and replays with zero LP
     misses; a corrupt snapshot degrades to a cold boot, not a crash *)
  let dir = temp_dir "cli_cache" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let reqs =
    [
      {|{"id":"c0","kernel":"matmul","m":1024}|};
      {|{"id":"c1","kernel":"nbody","m":256}|};
      {|{"id":"c2","kernel":"matvec","m":64}|};
    ]
  in
  let args = Printf.sprintf "--cache-dir %s" dir in
  let cold = run_serve args reqs in
  Alcotest.(check int) "three responses" 3 (List.length cold);
  Alcotest.(check bool) "snapshot file written" true
    (Sys.file_exists (Filename.concat dir "tilings_caches.json"));
  let warm = run_serve args reqs in
  Alcotest.(check (list string)) "warm-boot transcript byte-identical" cold warm;
  (* stderr view of another warm boot: the restore is announced and the
     replay takes zero LP misses *)
  let cmd = Printf.sprintf "%s serve %s --metrics 2>&1 >/dev/null" cli args in
  let ic, oc = Unix.open_process cmd in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    reqs;
  close_out oc;
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  ignore (Unix.close_process (ic, oc));
  let stderr_lines = List.rev !lines in
  Alcotest.(check bool) "restore announced" true
    (List.exists
       (fun l -> Astring.String.is_infix ~affix:"entries restored" l)
       stderr_lines);
  (match
     List.find_opt
       (fun l -> Astring.String.is_infix ~affix:"memo.lp.misses" l)
       stderr_lines
   with
  | None -> Alcotest.fail "memo.lp.misses missing from --metrics output"
  | Some l -> (
    match List.rev (List.filter (fun t -> t <> "") (String.split_on_char ' ' l)) with
    | v :: _ -> Alcotest.(check string) "zero LP misses on warm replay" "0" v
    | [] -> Alcotest.fail "unparseable memo.lp.misses line"));
  let oc2 = open_out (Filename.concat dir "tilings_caches.json") in
  output_string oc2 "garbage, not a snapshot\n";
  close_out oc2;
  Alcotest.(check (list string)) "corrupt snapshot -> cold boot, same answers" cold
    (run_serve args reqs)

let test_typed_refusals () =
  (* what the pipeline diagnoses comes back as its typed error, whichever
     command asked *)
  let big = "'i = 4096, j = 4096, k = 4096 : C[i,k] += A[i,j] * B[j,k]'" in
  check_typed "profile too large"
    (Printf.sprintf "profile %s --iters 1 --schedule optimal" big)
    ~exit:5 ~code:"kernel_too_large";
  check_typed "hierarchy too large" (Printf.sprintf "hierarchy -k %s" big) ~exit:5
    ~code:"kernel_too_large";
  check_typed "simulate too large" (Printf.sprintf "simulate -k %s" big) ~exit:5
    ~code:"kernel_too_large";
  (* OPT materializes its trace: refused above 2^22 accesses *)
  check_typed "simulate opt trace too large"
    "simulate -k 'i = 150, j = 150, k = 150 : C[i,k] += A[i,j] * B[j,k]' --policy opt"
    ~exit:5 ~code:"kernel_too_large";
  check_typed "codegen cache too small" "codegen -p matmul -m 2" ~exit:4
    ~code:"cache_too_small";
  check_typed "profile cache too small" "profile mm -m 1 --iters 1" ~exit:4
    ~code:"cache_too_small";
  (* a kernel given by name resolves with the serve decoder's typed
     errors: unknown name -> invalid_spec, malformed DSL -> parse_error *)
  check_typed "partition unknown kernel" "partition -k nonesuch -p 4" ~exit:3
    ~code:"invalid_spec";
  check_typed "partition bad dsl" "partition -k 'i=4 : A[i] +=' -p 4" ~exit:2
    ~code:"parse_error";
  check_typed "profile unknown kernel" "profile nonesuch" ~exit:3 ~code:"invalid_spec";
  check_typed "profile bad dsl" "profile 'i=4 : A[i] +='" ~exit:2 ~code:"parse_error";
  check_ok "codegen --untiled ignores -m" "codegen -p matmul -m 2 --untiled" [ "untiled" ];
  (* a malformed --levels list is command-line misuse, not a typed error *)
  let code, out = run "hierarchy -p matmul --levels 512,64" in
  if code <> 124 then Alcotest.failf "bad levels: expected usage exit 124, got %d\n%s" code out;
  if not (Astring.String.is_infix ~affix:"increasing" out) then
    Alcotest.failf "bad levels: diagnostic missing \"increasing\"\n%s" out

(* -k/--kernel and -p/--preset are one option resolved like the wire's
   "kernel" field: a preset name, an alias, a unique prefix or the DSL
   all name the same kernel and print the same bytes. *)
let test_kernel_spellings () =
  List.iter
    (fun (sub, opts) ->
      let outputs =
        List.map
          (fun k ->
            let cmd = Printf.sprintf "%s %s %s" sub k opts in
            let code, out = run cmd in
            if code <> 0 then Alcotest.failf "%s: exit %d\n%s" cmd code out;
            out)
          [ "-k mm"; "-p matmul"; "-k matmul"; "--preset matm"; "--kernel mm" ]
      in
      List.iter
        (fun out -> Alcotest.(check string) (sub ^ ": same output") (List.hd outputs) out)
        outputs)
    [ ("analyze", "-m 1024"); ("tile", "-m 1024"); ("simulate", "-m 256"); ("codegen", "-m 1024") ]

(* Caches of a few words: the shared tile falls back to all ones
   instead of failing inside the bound's beta (which needs m >= 2). *)
let test_small_caches () =
  check_ok "tile m=3" "tile -p matmul -m 3" [ "1(x1) x 1(x2) x 1(x3)" ];
  check_ok "tile m=4" "tile -p matmul -m 4" [ "shared cache" ];
  check_ok "codegen m=3" "codegen -p matmul -m 3" [ "tile: 1 x 1 x 1" ];
  check_ok "hierarchy 3,4" "hierarchy -p matmul --levels 3,4" [ "level 2 (M = 4 words)" ]

let test_error_paths () =
  check_fails "no kernel" "analyze" "kernel is required";
  (* the two spellings name one option, so giving both is cmdliner's
     own usage error *)
  let code, out = run "analyze -p matmul -k 'i = 2 : A[i] = B[i]'" in
  if code <> 124 then Alcotest.failf "both spellings: expected exit 124, got %d\n%s" code out;
  if not (Astring.String.is_infix ~affix:"cannot be present at the same time" out) then
    Alcotest.failf "both spellings: cmdliner diagnostic missing\n%s" out;
  check_typed "unknown kernel" "analyze -p nosuch" ~exit:3 ~code:"invalid_spec";
  check_fails "unknown kernel wording" "analyze -p nosuch" "unknown kernel";
  check_fails "bad dsl" "analyze -k 'garbage : x'" "parse error";
  check_fails "bad dsl position" "analyze -k 'garbage : x'" "line 1";
  check_fails "bad cache" "analyze -p matmul -m 1" "cache";
  (* unwritable or unbindable paths are diagnosed, never an uncaught
     exception (cmdliner's exit 125) *)
  List.iter
    (fun (args, fragment) ->
      let code, out = run args in
      if code = 0 || code = 125 then Alcotest.failf "%s: exit %d\n%s" args code out;
      if not (Astring.String.is_infix ~affix:fragment out) then
        Alcotest.failf "%s: diagnostic missing %S\n%s" args fragment out)
    [
      ("analyze -k mm --trace /nonexistent/dir/t.json", "--trace /nonexistent");
      ("compile -k mm -o /nonexistent/dir/plans.json", "--output /nonexistent");
      ("serve --socket /nonexistent/dir/s.sock < /dev/null", "bind (socket /nonexistent");
    ];
  check_fails "bad levels" "hierarchy -p matmul --levels 512,256" "increasing"

let () =
  Alcotest.run "cli"
    [
      ( "smoke",
        [
          Alcotest.test_case "presets" `Quick test_presets;
          Alcotest.test_case "analyze" `Quick test_analyze;
          Alcotest.test_case "lower-bound" `Quick test_lower_bound;
          Alcotest.test_case "tile" `Quick test_tile;
          Alcotest.test_case "closed-form" `Quick test_closed_form;
          Alcotest.test_case "closed-form too large" `Quick test_closed_form_too_large;
          Alcotest.test_case "compile" `Quick test_compile;
          Alcotest.test_case "regions" `Quick test_regions;
          Alcotest.test_case "closed-form and regions golden" `Quick
            test_closed_form_regions_golden;
          Alcotest.test_case "per-preset golden" `Quick test_cli_presets_golden;
          Alcotest.test_case "simulate" `Quick test_simulate;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy;
          Alcotest.test_case "partition" `Quick test_partition;
          Alcotest.test_case "codegen" `Quick test_codegen;
          Alcotest.test_case "sweep" `Quick test_sweep;
          Alcotest.test_case "metrics" `Quick test_metrics;
          Alcotest.test_case "profile" `Quick test_profile;
          Alcotest.test_case "trace flag" `Quick test_trace_flag;
          Alcotest.test_case "overflow guards" `Quick test_overflow_guards;
          Alcotest.test_case "typed refusals" `Quick test_typed_refusals;
          Alcotest.test_case "kernel spellings" `Quick test_kernel_spellings;
          Alcotest.test_case "small caches" `Quick test_small_caches;
          Alcotest.test_case "error paths" `Quick test_error_paths;
        ] );
      ( "serve",
        [
          Alcotest.test_case "pipe 120 requests" `Quick test_serve_pipe;
          Alcotest.test_case "matches sweep" `Quick test_serve_matches_sweep;
          Alcotest.test_case "matches partition" `Quick test_serve_matches_partition;
          Alcotest.test_case "golden transcript" `Quick test_serve_golden;
          Alcotest.test_case "plans preloaded" `Quick test_serve_plans;
          Alcotest.test_case "metrics" `Quick test_serve_metrics;
          Alcotest.test_case "broken stdout returns" `Quick test_serve_broken_stdout;
          Alcotest.test_case "pipe SIGTERM at --jobs 3" `Quick test_serve_pipe_sigterm;
          Alcotest.test_case "telemetry, log and top" `Quick test_serve_telemetry_and_top;
          Alcotest.test_case "profile telemetry" `Quick test_profile_telemetry;
          Alcotest.test_case "multi-client unix socket" `Quick test_serve_multi_client;
          Alcotest.test_case "tcp transport" `Quick test_serve_tcp;
          Alcotest.test_case "no head-of-line blocking at --jobs 2" `Quick
            test_serve_no_head_of_line;
          Alcotest.test_case "pipelined lines in arrival order" `Quick test_serve_pipelined_order;
          Alcotest.test_case "persistent domains" `Quick test_serve_domains;
          Alcotest.test_case "per-class waiting cap" `Quick test_serve_overloaded;
          Alcotest.test_case "SIGTERM drains queued requests" `Quick test_serve_drain_queued;
          Alcotest.test_case "cache-dir warm boot" `Quick test_serve_cache_dir;
        ] );
    ]

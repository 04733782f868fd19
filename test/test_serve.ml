(* The serve layer: request decoding, response encoding, and the
   transport-agnostic dispatch loop (driven by scripted events — no
   pipes or sockets, so every scenario is deterministic), plus the
   checked engine API underneath it. *)

let spec_of name =
  match Kernels.lookup name with
  | Ok s -> s
  | Error msg -> Alcotest.failf "preset %s: %s" name msg

(* ------------------------------------------------------------------ *)
(* Response-line probes (responses are JSON — parse them back)         *)
(* ------------------------------------------------------------------ *)

let parse_line line =
  match Jsonlite.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable response %S: %s" line e

let resp_id line = Jsonlite.str_member "id" (parse_line line)

let resp_ok line =
  match Jsonlite.member "ok" (parse_line line) with
  | Some (Jsonlite.Bool b) -> b
  | _ -> Alcotest.failf "response missing \"ok\": %s" line

let resp_error_code line =
  match Jsonlite.member "error" (parse_line line) with
  | Some err -> Jsonlite.str_member "code" err
  | None -> None

let resp_version line =
  match Jsonlite.num_member "v" (parse_line line) with
  | Some v -> int_of_float v
  | None -> Alcotest.failf "response missing \"v\": %s" line

(* ------------------------------------------------------------------ *)
(* Protocol: decoding                                                  *)
(* ------------------------------------------------------------------ *)

let test_decode_minimal () =
  match Request.decode {|{"kernel":"matmul","m":64}|} with
  | Error _ -> Alcotest.fail "minimal request rejected"
  | Ok req ->
    Alcotest.(check (option string)) "no id" None req.Request.id;
    Alcotest.(check int) "defaults to v1" 1 req.Request.v;
    Alcotest.(check string) "kernel" "matmul" req.Request.spec.Spec.name;
    (match req.Request.body with
    | Request.Analyze { m; sims; shared; timings } ->
      Alcotest.(check int) "m" 64 m;
      Alcotest.(check int) "no sims by default" 0 (List.length sims);
      Alcotest.(check bool) "shared defaults on" true shared;
      Alcotest.(check bool) "timings off" false timings
    | b -> Alcotest.failf "op-less v1 should decode as analyze, got %s" (Request.op_name b));
    Alcotest.(check bool) "no deadline" true (req.Request.deadline_s = None);
    (* the implicit op earns exactly one deprecated_field warning *)
    (match req.Request.warnings with
    | [ w ] ->
      Alcotest.(check string) "warning code" "deprecated_field" w.Serve_protocol.w_code;
      Alcotest.(check string) "warned field" "op" w.Serve_protocol.w_field
    | ws -> Alcotest.failf "expected 1 warning, got %d" (List.length ws))

let test_decode_full () =
  let line =
    {|{"v":1,"id":"q7","op":"analyze","kernel":"mv","m":256,"schedules":["optimal","classic"],|}
    ^ {|"policies":["lru","fifo"],"shared":false,"deadline_ms":1500,"timings":true}|}
  in
  match Request.decode line with
  | Error _ -> Alcotest.fail "full request rejected"
  | Ok req ->
    Alcotest.(check (option string)) "id" (Some "q7") req.Request.id;
    (* "mv" is the matvec alias *)
    Alcotest.(check string) "alias resolved" "matvec" req.Request.spec.Spec.name;
    (match req.Request.body with
    | Request.Analyze { sims; shared; timings; _ } ->
      Alcotest.(check int) "schedules x policies" 4 (List.length sims);
      Alcotest.(check bool) "shared off" false shared;
      Alcotest.(check bool) "timings on" true timings
    | b -> Alcotest.failf "wanted analyze, got %s" (Request.op_name b));
    Alcotest.(check (option (float 1e-9))) "deadline in seconds" (Some 1.5)
      req.Request.deadline_s;
    Alcotest.(check int) "explicit op: no warnings" 0 (List.length req.Request.warnings)

let test_decode_dsl () =
  match Request.decode {|{"kernel":"i = 8, j = 8 : A[i] += B[i,j]","m":32}|} with
  | Error _ -> Alcotest.fail "DSL kernel rejected"
  | Ok req -> Alcotest.(check int) "two loops" 2 (Array.length req.Request.spec.Spec.loops)

let expect_error name line pred =
  match Request.decode line with
  | Ok _ -> Alcotest.failf "%s: expected a decode error" name
  | Error { Request.err_id; err; _ } -> pred err_id err

let test_decode_errors () =
  expect_error "not json" "this is not json" (fun id err ->
    Alcotest.(check (option string)) "no id recoverable" None id;
    match err with
    | Engine_error.Parse_error { line = 0; col = 0; _ } -> ()
    | e -> Alcotest.failf "wanted parse_error at 0:0, got %s" (Engine_error.code e));
  expect_error "missing m" {|{"id":"x1","kernel":"matmul"}|} (fun id err ->
    (* the id still rides along so the error response can carry it *)
    Alcotest.(check (option string)) "id preserved" (Some "x1") id;
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  expect_error "missing kernel" {|{"m":64}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  expect_error "bad version" {|{"v":3,"kernel":"matmul","m":64}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  (* v2 makes the op mandatory; the same line at v1 is fine *)
  expect_error "v2 without op" {|{"v":2,"kernel":"matmul","m":64}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  expect_error "unknown kernel" {|{"kernel":"nosuch","m":64}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_spec" (Engine_error.code err));
  expect_error "bad schedule" {|{"kernel":"matmul","m":64,"schedules":["zig"]}|}
    (fun _ err -> Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  expect_error "bad dsl has position" {|{"kernel":"i = 4 : garbage[","m":64}|}
    (fun _ err ->
      match err with
      | Engine_error.Parse_error { line; _ } ->
        Alcotest.(check bool) "line set" true (line >= 1)
      | e -> Alcotest.failf "wanted parse_error, got %s" (Engine_error.code e))

let test_decode_compile_op () =
  (* op:"compile" needs only the kernel (a plan is size-independent) *)
  (match Request.decode {|{"id":"c1","op":"compile","kernel":"matmul"}|} with
  | Error _ -> Alcotest.fail "compile request rejected"
  | Ok req ->
    Alcotest.(check bool) "op decoded" true (req.Request.body = Request.Compile));
  (match Request.decode {|{"op":"analyze","kernel":"matmul","m":64}|} with
  | Error _ -> Alcotest.fail "explicit analyze rejected"
  | Ok req -> (
    match req.Request.body with
    | Request.Analyze _ -> ()
    | b -> Alcotest.failf "wanted analyze, got %s" (Request.op_name b)));
  expect_error "unknown op" {|{"op":"frobnicate","kernel":"matmul","m":64}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  (* analyze still requires m even when op is implicit *)
  expect_error "compile does not waive analyze's m" {|{"op":"analyze","kernel":"matmul"}|}
    (fun _ err ->
      Alcotest.(check string) "code" "invalid_request" (Engine_error.code err))

let test_decode_sweep_op () =
  (match Request.decode {|{"op":"sweep","kernel":"matmul","ms":[64,256,1024]}|} with
  | Error _ -> Alcotest.fail "sweep request rejected"
  | Ok req -> (
    match req.Request.body with
    | Request.Sweep { ms; sims; shared; _ } ->
      Alcotest.(check (list int)) "sizes in order" [ 64; 256; 1024 ] ms;
      Alcotest.(check int) "no sims by default" 0 (List.length sims);
      Alcotest.(check bool) "shared defaults on" true shared
    | b -> Alcotest.failf "wanted sweep, got %s" (Request.op_name b)));
  expect_error "missing ms" {|{"op":"sweep","kernel":"matmul"}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  expect_error "empty ms" {|{"op":"sweep","kernel":"matmul","ms":[]}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err))

let test_decode_partition_op () =
  (match
     Request.decode {|{"v":2,"id":"p1","op":"partition","kernel":"matmul","p":64,"m":4096}|}
   with
  | Error _ -> Alcotest.fail "partition request rejected"
  | Ok req ->
    Alcotest.(check int) "v echoed" 2 req.Request.v;
    Alcotest.(check int) "no warnings at v2" 0 (List.length req.Request.warnings);
    (match req.Request.body with
    | Request.Partition { procs; m_local; net } ->
      Alcotest.(check int) "p" 64 procs;
      Alcotest.(check int) "m_local" 4096 m_local;
      Alcotest.(check bool) "net defaults to words" true (net = Partition_solve.Words)
    | b -> Alcotest.failf "wanted partition, got %s" (Request.op_name b)));
  (* alpha-beta network: numbers and "p/q" strings are both rationals *)
  (match
     Request.decode
       {|{"op":"partition","kernel":"matmul","p":8,"m":64,"net":{"alpha":2,"beta":"1/2"}}|}
   with
  | Ok { Request.body = Request.Partition { net = Partition_solve.Alpha_beta { alpha; beta }; _ }; _ }
    ->
    Alcotest.(check string) "alpha" "2" (Rat.to_string alpha);
    Alcotest.(check string) "beta" "1/2" (Rat.to_string beta)
  | _ -> Alcotest.fail "alpha-beta net rejected");
  expect_error "missing p" {|{"op":"partition","kernel":"matmul","m":64}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  expect_error "missing m" {|{"op":"partition","kernel":"matmul","p":8}|} (fun _ err ->
    Alcotest.(check string) "code" "invalid_request" (Engine_error.code err));
  expect_error "unknown net" {|{"op":"partition","kernel":"matmul","p":8,"m":64,"net":"rings"}|}
    (fun _ err ->
      Alcotest.(check string) "code" "network_model_invalid" (Engine_error.code err));
  expect_error "net not an object"
    {|{"op":"partition","kernel":"matmul","p":8,"m":64,"net":7}|} (fun _ err ->
      Alcotest.(check string) "code" "network_model_invalid" (Engine_error.code err))

let test_response_shapes () =
  let ok = Serve_protocol.ok_response ~v:1 ~id:(Some "a") ~report_json:{|{"x":1}|} () in
  Alcotest.(check string) "ok line" {|{"v":1,"id":"a","ok":true,"report":{"x":1}}|} ok;
  let warned =
    Serve_protocol.ok_response
      ~warnings:[ Serve_protocol.deprecated_field ~field:"op" ~message:"say the op" ]
      ~v:1 ~id:(Some "a") ~report_json:{|{"x":1}|} ()
  in
  Alcotest.(check string) "warnings sit between ok and the payload"
    {|{"v":1,"id":"a","ok":true,"warnings":[{"code":"deprecated_field","field":"op","message":"say the op"}],"report":{"x":1}}|}
    warned;
  let swept = Serve_protocol.sweep_response ~v:2 ~id:(Some "s") ~report_jsons:[ "{}"; "{}" ] () in
  Alcotest.(check string) "sweep line" {|{"v":2,"id":"s","ok":true,"reports":[{},{}]}|} swept;
  let part =
    Serve_protocol.partition_response ~v:2 ~id:(Some "p") ~partition_json:{|{"p":4}|} ()
  in
  Alcotest.(check string) "partition line" {|{"v":2,"id":"p","ok":true,"partition":{"p":4}}|}
    part;
  let err =
    Serve_protocol.error_response ~v:1 ~id:None
      (Engine_error.Parse_error { line = 3; col = 9; message = "boom" })
  in
  Alcotest.(check string) "error line"
    {|{"v":1,"id":null,"ok":false,"error":{"code":"parse_error","message":"parse error: line 3, col 9: boom","line":3,"col":9}}|}
    err

(* ------------------------------------------------------------------ *)
(* Checked pipeline API                                                *)
(* ------------------------------------------------------------------ *)

let test_run_checked () =
  let spec = spec_of "matmul" in
  (match Pipeline.run_checked (Pipeline.request spec ~m:64) with
  | Ok r -> Alcotest.(check int) "m echoed" 64 r.Report.m
  | Error e -> Alcotest.failf "valid request failed: %s" (Engine_error.to_string e));
  (match Pipeline.run_checked (Pipeline.request spec ~m:1) with
  | Error (Engine_error.Cache_too_small { m = 1; _ }) -> ()
  | Error e -> Alcotest.failf "wanted cache_too_small, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "m=1 accepted");
  (* an already-expired deadline trips before any work *)
  match Pipeline.run_checked ~deadline:0.0 (Pipeline.request spec ~m:64) with
  | Error (Engine_error.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wanted deadline_exceeded, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "expired deadline accepted"

let test_run_checked_too_large () =
  match Parser.parse_string "i = 2097152, j = 2097152, k = 2097152 : C[i,j,k] += A[i,j]" with
  | Error e -> Alcotest.failf "spec: %s" e
  | Ok spec -> (
    let sims = [ Pipeline.sim ~policy:Policy.Lru Pipeline.Optimal ] in
    match Pipeline.run_checked (Pipeline.request ~sims spec ~m:1024) with
    | Error (Engine_error.Kernel_too_large { iterations; _ }) ->
      Alcotest.(check string) "exact count" "9223372036854775808" iterations
    | Error e -> Alcotest.failf "wanted kernel_too_large, got %s" (Engine_error.code e)
    | Ok _ -> Alcotest.fail "2^63 iterations accepted for simulation")

let test_run_checked_opt_too_large () =
  (* OPT materializes its whole trace, so it is refused above 2^22
     accesses: 1_048_576 iterations at matmul's 4 accesses per point.
     LRU passes the same validation and only then meets the deadline. *)
  let spec =
    match Parser.parse_string "i = 150, j = 150, k = 150 : C[i,j] += A[i,k] * B[k,j]" with
    | Ok s -> s
    | Error e -> Alcotest.failf "spec: %s" e
  in
  let run policy =
    Pipeline.run_checked ~deadline:0.0
      (Pipeline.request ~sims:[ Pipeline.sim ~policy Pipeline.Untiled ] spec ~m:1024)
  in
  (match run Policy.Opt with
  | Error (Engine_error.Kernel_too_large { iterations; limit }) ->
    Alcotest.(check string) "iterations" "3375000" iterations;
    Alcotest.(check int) "limit" (Executor.opt_trace_limit / 4) limit;
    Alcotest.(check int) "2^22 / 4" 1_048_576 limit
  | Error e -> Alcotest.failf "wanted kernel_too_large, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "OPT over 2^22 accesses accepted");
  match run Policy.Lru with
  | Error (Engine_error.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "LRU: wanted deadline_exceeded, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "expired deadline accepted"

(* ------------------------------------------------------------------ *)
(* The serve loop, driven by scripted events                           *)
(* ------------------------------------------------------------------ *)

let feeder events =
  let q = ref events in
  fun ~block:_ ->
    match !q with
    | [] -> Serve.Eof
    | e :: rest ->
      q := rest;
      e

let run_loop ?(cfg = { (Serve.default_config ()) with jobs = 1 }) events =
  let out = ref [] in
  Serve.serve cfg ~next:(feeder events) ~emit:(fun l -> out := l :: !out);
  List.rev !out

let req ?(extra = "") i = Printf.sprintf {|{"id":"r%d","kernel":"matvec","m":64%s}|} i extra

let test_loop_order () =
  (* four lines: responses come back in arrival order *)
  let events = [ Serve.Line (req 0); Line (req 1); Line (req 2); Line (req 3); Eof ] in
  let out = run_loop events in
  Alcotest.(check (list (option string))) "arrival order"
    [ Some "r0"; Some "r1"; Some "r2"; Some "r3" ]
    (List.map resp_id out);
  List.iter (fun l ->
    Alcotest.(check bool) "ok" true (resp_ok l);
    Alcotest.(check int) "versioned" 1 (resp_version l))
    out

let test_loop_wait_between_lines () =
  (* Wait (an interrupted read) is retried: the line after it is served *)
  let events = [ Serve.Line (req 0); Wait; Line (req 1); Eof ] in
  let out = run_loop events in
  Alcotest.(check int) "both answered" 2 (List.length out)

let test_loop_answers_before_reading_on () =
  (* jobs = 1: each line is answered before the next is read, so the
     analytic answer is out before the simulation line is even pulled
     from the reader (reading ahead would pull both lines first) *)
  let events =
    ref [ Serve.Line (req 0); Line (req ~extra:{|,"schedules":["optimal"]|} 1); Eof ]
  in
  let yielded = ref 0 in
  let next ~block:_ =
    match !events with
    | [] -> Serve.Eof
    | e :: rest ->
      incr yielded;
      events := rest;
      e
  in
  let emitted_after = ref [] in
  Serve.serve
    { (Serve.default_config ()) with jobs = 1 }
    ~next
    ~emit:(fun _ -> emitted_after := !yielded :: !emitted_after);
  Alcotest.(check (list int)) "events read when each response was emitted" [ 1; 2 ]
    (List.rev !emitted_after)

let test_loop_malformed_recovery () =
  (* a garbage line gets an error response under a minted "srv-N" id
     (the mint counter is process-wide, so only the prefix is stable
     within the test binary); the loop keeps serving *)
  let events =
    [ Serve.Line (req 0); Line "garbage"; Line {|{"id":"r2","kernel":"matvec"}|};
      Line (req 3); Eof ]
  in
  let out = run_loop events in
  let ids = List.map resp_id out in
  (match ids with
  | [ _; Some minted; _; _ ] ->
    Alcotest.(check bool)
      ("id-less line got a minted id: " ^ minted)
      true
      (String.length minted > 4 && String.sub minted 0 4 = "srv-")
  | _ -> Alcotest.failf "expected 4 responses, got %d" (List.length out));
  Alcotest.(check (list (option string))) "order kept, errors included"
    [ Some "r0"; List.nth ids 1; Some "r2"; Some "r3" ]
    ids;
  Alcotest.(check (list (option string))) "codes"
    [ None; Some "parse_error"; Some "invalid_request"; None ]
    (List.map resp_error_code out)

let test_loop_deep_json () =
  (* a line nested far past Jsonlite's depth cap is answered with a
     parse_error instead of overflowing the stack; the next line is
     still served *)
  let deep = String.make 100_000 '[' in
  let out = run_loop [ Serve.Line deep; Line (req 1); Eof ] in
  Alcotest.(check (list (option string))) "codes"
    [ Some "parse_error"; None ]
    (List.map resp_error_code out);
  Alcotest.(check (option string)) "valid line answered" (Some "r1") (resp_id (List.nth out 1))

let test_reader_line_cap () =
  (* an over-long line is dropped by the reader without buffering it and
     answered with one invalid_request naming the limit; a line of
     exactly the limit and the lines around them are served normally *)
  let limit = 1 lsl 20 in
  let path = Filename.temp_file "serve_long" ".ndjson" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let at_limit = String.make (limit - String.length (req 2)) ' ' ^ req 2 in
  Out_channel.with_open_bin path (fun oc ->
    List.iter
      (fun l -> output_string oc (l ^ "\n"))
      [ req 0; String.make (limit + 1) 'x'; at_limit; req 3 ]);
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let out = ref [] in
  Serve.serve
    { (Serve.default_config ()) with jobs = 1 }
    ~next:(Serve.reader_of_fd fd)
    ~emit:(fun l -> out := l :: !out);
  let out = List.rev !out in
  Alcotest.(check (list (option string))) "codes"
    [ None; Some "invalid_request"; None; None ]
    (List.map resp_error_code out);
  Alcotest.(check (list (option string))) "served around the long line"
    [ Some "r0"; Some "r2"; Some "r3" ]
    (List.map resp_id (List.filteri (fun i _ -> i <> 1) out));
  Alcotest.(check bool) "error names the limit" true
    (Astring.String.is_infix ~affix:"1048576 bytes" (List.nth out 1))

let test_loop_deadline () =
  (* deadline_ms 0 is the liveness probe: fails before any work *)
  let out = run_loop [ Serve.Line (req ~extra:{|,"deadline_ms":0|} 0); Eof ] in
  match out with
  | [ l ] ->
    Alcotest.(check bool) "not ok" false (resp_ok l);
    Alcotest.(check (option string)) "code" (Some "deadline_exceeded") (resp_error_code l)
  | _ -> Alcotest.failf "expected 1 response, got %d" (List.length out)

let test_loop_default_deadline () =
  (* config-level default applies only to requests without their own *)
  let cfg = { (Serve.default_config ()) with jobs = 1; default_deadline_s = Some 0.0 } in
  let out =
    run_loop ~cfg
      [ Serve.Line (req 0); Line (req ~extra:{|,"deadline_ms":60000|} 1); Eof ]
  in
  Alcotest.(check (list (option string))) "only r0 expired"
    [ Some "deadline_exceeded"; None ]
    (List.map resp_error_code out)

let test_loop_opt_too_large () =
  let line =
    {|{"id":"o1","kernel":"i = 150, j = 150, k = 150 : C[i,j] += A[i,k] * B[k,j]","m":1024,"schedules":["untiled"],"policies":["opt"]}|}
  in
  match run_loop [ Serve.Line line; Eof ] with
  | [ l ] ->
    Alcotest.(check (option string)) "code" (Some "kernel_too_large") (resp_error_code l);
    Alcotest.(check bool) ("limit in message: " ^ l) true
      (Astring.String.is_infix ~affix:"3375000 iterations > 1048576" l)
  | out -> Alcotest.failf "expected 1 response, got %d" (List.length out)

let test_loop_eof_drains () =
  (* EOF after three lines: every line read is still answered *)
  let out = run_loop [ Serve.Line (req 0); Line (req 1); Line (req 2); Eof ] in
  Alcotest.(check int) "all three answered" 3 (List.length out)

let test_loop_stop_flag () =
  let out = ref [] in
  Serve.serve ~stop:(fun () -> true)
    { (Serve.default_config ()) with jobs = 1 }
    ~next:(feeder [ Serve.Line (req 0) ])
    ~emit:(fun l -> out := l :: !out);
  Alcotest.(check int) "stop before reading" 0 (List.length !out)

let test_batch_matches_sequential () =
  (* the same requests, on four domains vs one, produce byte-identical
     response lines *)
  let reqs =
    List.init 8 (fun i ->
      Printf.sprintf
        {|{"id":"r%d","kernel":"%s","m":%d,"schedules":["optimal"]}|} i
        (if i mod 2 = 0 then "matvec" else "outer_product")
        (64 * (1 + (i mod 3))))
  in
  let wide =
    run_loop
      ~cfg:{ (Serve.default_config ()) with jobs = 4 }
      (List.map (fun l -> Serve.Line l) reqs @ [ Serve.Eof ])
  in
  let narrow =
    run_loop (List.concat_map (fun l -> [ Serve.Line l; Serve.Wait ]) reqs @ [ Serve.Eof ])
  in
  Alcotest.(check (list string)) "byte-identical" narrow wide

let test_report_matches_engine () =
  (* a serve response embeds exactly the report the engine API returns *)
  let spec = spec_of "matmul" in
  let expected =
    (* serve defaults shared:true, Pipeline.request defaults it off *)
    match Pipeline.run_checked (Pipeline.request ~shared:true spec ~m:256) with
    | Ok r -> Report.to_json ~timings:false r
    | Error e -> Alcotest.failf "engine: %s" (Engine_error.to_string e)
  in
  let out =
    run_loop [ Serve.Line {|{"id":"a","op":"analyze","kernel":"matmul","m":256}|}; Eof ]
  in
  match out with
  | [ line ] ->
    Alcotest.(check string) "embedded verbatim"
      (Serve_protocol.ok_response ~v:1 ~id:(Some "a") ~report_json:expected ())
      line
  | _ -> Alcotest.failf "expected 1 response, got %d" (List.length out)

let test_loop_compile_op () =
  (* a compile request rides among analyze lines and returns the plan
     envelope; the plan is byte-identical to Tiling_plan.to_json *)
  let expected = Tiling_plan.to_json (Tiling_plan.compile (spec_of "matmul")) in
  let out =
    run_loop
      [
        Serve.Line {|{"id":"c1","op":"compile","kernel":"matmul"}|};
        Line (req 1);
        Eof;
      ]
  in
  match out with
  | [ plan_line; analyze_line ] ->
    Alcotest.(check string) "plan envelope"
      (Serve_protocol.plan_response ~v:1 ~id:(Some "c1") ~plan_json:expected ())
      plan_line;
    Alcotest.(check bool) "analyze unaffected" true (resp_ok analyze_line)
  | _ -> Alcotest.failf "expected 2 responses, got %d" (List.length out)

let test_loop_sweep_op () =
  (* a sweep request returns one envelope holding the same reports, in
     size order, that per-size analyze calls produce *)
  let spec = spec_of "matvec" in
  let expected =
    List.map
      (fun m ->
        match Pipeline.run_checked (Pipeline.request ~shared:true spec ~m) with
        | Ok r -> Report.to_json ~timings:false r
        | Error e -> Alcotest.failf "engine: %s" (Engine_error.to_string e))
      [ 64; 256 ]
  in
  let out =
    run_loop [ Serve.Line {|{"id":"s1","op":"sweep","kernel":"matvec","ms":[64,256]}|}; Eof ]
  in
  match out with
  | [ line ] ->
    Alcotest.(check string) "sweep envelope"
      (Serve_protocol.sweep_response ~v:1 ~id:(Some "s1") ~report_jsons:expected ())
      line
  | _ -> Alcotest.failf "expected 1 response, got %d" (List.length out)

let test_loop_partition_op () =
  (* the serve partition payload is byte-identical to what the engine
     (and hence the CLI) renders for the same request *)
  let spec = spec_of "matmul" in
  let expected =
    match Pipeline.partition_checked spec ~p:64 ~m_local:4096 ~net:Partition_solve.Words with
    | Ok sol -> Partition_solve.to_json sol
    | Error e -> Alcotest.failf "engine: %s" (Engine_error.to_string e)
  in
  let out =
    run_loop
      [
        Serve.Line {|{"v":2,"id":"p1","op":"partition","kernel":"matmul","p":64,"m":4096}|};
        Eof;
      ]
  in
  match out with
  | [ line ] ->
    Alcotest.(check string) "partition envelope, v2 echoed"
      (Serve_protocol.partition_response ~v:2 ~id:(Some "p1") ~partition_json:expected ())
      line
  | _ -> Alcotest.failf "expected 1 response, got %d" (List.length out)

let test_loop_partition_errors () =
  (* typed partition failures ride the normal error envelope: a prime p
     that exceeds every loop bound cannot be factored into a grid, and a
     malformed or negative network model is rejected at decode/validate *)
  let out =
    run_loop
      [
        Serve.Line
          {|{"id":"e1","op":"partition","kernel":"i = 7, j = 7 : A[i] += B[i,j]","p":11,"m":64}|};
        Line {|{"id":"e2","op":"partition","kernel":"matmul","p":8,"m":64,"net":"rings"}|};
        Line
          {|{"id":"e3","op":"partition","kernel":"matmul","p":8,"m":64,"net":{"alpha":-1}}|};
        Eof;
      ]
  in
  Alcotest.(check (list (option string))) "ids"
    [ Some "e1"; Some "e2"; Some "e3" ]
    (List.map resp_id out);
  Alcotest.(check (list (option string))) "codes"
    [ Some "unfactorable_p"; Some "network_model_invalid"; Some "network_model_invalid" ]
    (List.map resp_error_code out)

let test_loop_version_echo_and_warnings () =
  (* responses echo the request's wire version; an op-less v1 line earns
     the structured deprecation warning, an explicit op does not *)
  let out =
    run_loop
      [
        Serve.Line {|{"id":"v2","v":2,"op":"analyze","kernel":"matvec","m":64}|};
        Line {|{"id":"v1","kernel":"matvec","m":64}|};
        Line {|{"id":"x","op":"analyze","kernel":"matvec","m":64}|};
        Eof;
      ]
  in
  Alcotest.(check (list int)) "versions echoed" [ 2; 1; 1 ] (List.map resp_version out);
  List.iter (fun l -> Alcotest.(check bool) "ok" true (resp_ok l)) out;
  let warning_fields line =
    match Jsonlite.member "warnings" (parse_line line) with
    | Some (Jsonlite.Arr ws) ->
      List.map
        (fun w ->
          ( Jsonlite.str_member "code" w |> Option.value ~default:"?",
            Jsonlite.str_member "field" w |> Option.value ~default:"?" ))
        ws
    | _ -> []
  in
  match out with
  | [ v2; v1; explicit ] ->
    Alcotest.(check (list (pair string string))) "v2 clean" [] (warning_fields v2);
    Alcotest.(check (list (pair string string))) "v1 op-less warned"
      [ ("deprecated_field", "op") ]
      (warning_fields v1);
    Alcotest.(check (list (pair string string))) "explicit op clean" []
      (warning_fields explicit)
  | _ -> Alcotest.failf "expected 3 responses, got %d" (List.length out)

let timer_calls (d : Obs.snapshot) name =
  match List.assoc_opt name d.Obs.stimers with Some t -> t.Obs.tcalls | None -> 0

let counter_delta (d : Obs.snapshot) name =
  Option.value ~default:0 (List.assoc_opt name d.Obs.scounters)

let test_loop_plan_first_warmup () =
  (* the first request touching a new shape compiles its plan and is
     answered from it: no tiling LP is solved, not even on first touch,
     and a later request at an unseen M needs no compile either *)
  Pipeline.reset_caches ();
  Fun.protect ~finally:Pipeline.reset_caches @@ fun () ->
  let s0 = Obs.snapshot () in
  let first = run_loop [ Serve.Line (req 0); Eof ] in
  let d = Obs.diff s0 (Obs.snapshot ()) in
  Alcotest.(check int) "first request answered" 1 (List.length first);
  Alcotest.(check bool) "ok" true (resp_ok (List.hd first));
  Alcotest.(check int) "first touch: zero LP misses" 0 (counter_delta d "memo.lp.misses");
  Alcotest.(check int) "first touch: one compile" 1 (timer_calls d "plan.compile");
  let s1 = Obs.snapshot () in
  let second =
    run_loop [ Serve.Line {|{"id":"warm","kernel":"matvec","m":4096}|}; Eof ]
  in
  let d = Obs.diff s1 (Obs.snapshot ()) in
  Alcotest.(check int) "second request answered" 1 (List.length second);
  Alcotest.(check int) "unseen M: zero LP misses" 0 (counter_delta d "memo.lp.misses");
  Alcotest.(check int) "unseen M: no compile" 0 (timer_calls d "plan.compile")

let golden_requests () =
  In_channel.with_open_bin "golden/serve_requests.ndjson" In_channel.input_lines

(* The one LP path left: a shape whose plan compilation is refused. The
   golden "plan-too-big" kernel (20 loops, 6 arrays, every bound 2) is
   answered through run_checked on the LP, exactly as the LP oracle
   answers it; every such answer counts one plan.lp_fallbacks and the
   refusal is compiled once and negative-cached. *)
let test_refused_shape_answers_by_lp () =
  let line =
    List.find (fun l -> Astring.String.is_infix ~affix:{|"id":"plan-too-big"|} l) (golden_requests ())
  in
  let spec =
    match Request.decode line with
    | Ok r -> r.Request.spec
    | Error _ -> Alcotest.fail "golden plan-too-big line does not decode"
  in
  Pipeline.reset_caches ();
  Fun.protect ~finally:Pipeline.reset_caches @@ fun () ->
  let s0 = Obs.snapshot () in
  List.iteri
    (fun i m ->
      let before = Obs.snapshot () in
      let r =
        match Pipeline.run_checked (Pipeline.request spec ~m) with
        | Ok r -> r
        | Error e -> Alcotest.failf "analyze m=%d: %s" m (Engine_error.to_string e)
      in
      let d = Obs.diff before (Obs.snapshot ()) in
      Alcotest.(check int)
        (Printf.sprintf "request %d: one LP fallback" i)
        1
        (counter_delta d "plan.lp_fallbacks");
      let beta = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
      let sol = Tiling.solve_lp_lexmax spec ~beta in
      let bound =
        Lower_bound.communication spec ~m ~beta
          ~price:(fun beta -> Tiling.lp_value spec ~beta)
          ~lambda:sol.Tiling.lambda ~k_hat:sol.Tiling.value
      in
      Alcotest.(check bool) (Printf.sprintf "m=%d: lambda = oracle" m) true
        (Array.for_all2 Rat.equal sol.Tiling.lambda r.Report.lp.Tiling.lambda);
      Alcotest.(check bool) (Printf.sprintf "m=%d: k_hat = oracle" m) true
        (Rat.equal sol.Tiling.value r.Report.lp.Tiling.value);
      Alcotest.(check bool) (Printf.sprintf "m=%d: bound = oracle" m) true
        (Lower_bound.equal bound r.Report.bound))
    [ 64; 128; 1024 ];
  let d = Obs.diff s0 (Obs.snapshot ()) in
  Alcotest.(check int) "one compile attempt across requests" 1 (timer_calls d "plan.compile");
  (match Pipeline.plan_of spec with
  | Error e ->
    Alcotest.(check string) "plan_of code" "shape_too_large" (Engine_error.code e);
    Alcotest.(check int) "plan_of exit" 11 (Engine_error.exit_code e)
  | Ok _ -> Alcotest.fail "plan_of compiled the refused shape");
  match run_loop [ Serve.Line line; Eof ] with
  | [ l ] -> Alcotest.(check (option string)) "compile op" (Some "shape_too_large") (resp_error_code l)
  | out -> Alcotest.failf "expected 1 response, got %d" (List.length out)

(* Byte-mutation fuzz of the serve loop: every golden request under
   seeded single-byte flips, deletions and truncations. Each mutated line
   must get exactly one well-formed response (ok
   plus an id, or an error object), and the loop must still answer a
   valid request afterwards. *)
let mutate rng line =
  let n = String.length line in
  if n = 0 then line
  else
    let i = Random.State.int rng n in
    match Random.State.int rng 3 with
    | 0 ->
      (* a flip to any byte a line can carry: everything but '\n' *)
      let c = Char.chr (Random.State.int rng 255) in
      let c = if c = '\n' then '\255' else c in
      String.mapi (fun j x -> if j = i then c else x) line
    | 1 -> String.sub line 0 i ^ String.sub line (i + 1) (n - i - 1)
    | _ -> String.sub line 0 i

let test_loop_mutation_fuzz () =
  let rng = Random.State.make [| 0x5e7e |] in
  let mutants =
    List.concat_map (fun l -> List.init 6 (fun _ -> mutate rng l)) (golden_requests ())
  in
  let out =
    run_loop
      (List.concat_map (fun l -> [ Serve.Line l; Wait ]) mutants
      @ [ Serve.Line (req 99); Eof ])
  in
  Pipeline.reset_caches ();
  Alcotest.(check int) "one response per line" (List.length mutants + 1) (List.length out);
  List.iter2
    (fun input resp ->
      match Jsonlite.parse resp with
      | Error e -> Alcotest.failf "input %S: unparseable response %S: %s" input resp e
      | Ok j -> (
        match Jsonlite.member "ok" j with
        | Some (Jsonlite.Bool true) ->
          if Jsonlite.str_member "id" j = None then
            Alcotest.failf "input %S: ok response without id: %s" input resp
        | Some (Jsonlite.Bool false) ->
          if Option.bind (Jsonlite.member "error" j) (Jsonlite.str_member "code") = None then
            Alcotest.failf "input %S: failure without an error code: %s" input resp
        | _ -> Alcotest.failf "input %S: response without ok: %s" input resp))
    (mutants @ [ req 99 ])
    out;
  let last = List.nth out (List.length mutants) in
  Alcotest.(check (option string)) "valid request answered afterwards" (Some "r99") (resp_id last);
  Alcotest.(check bool) "and answered ok" true (resp_ok last)

let test_serve_counters () =
  Obs.reset ();
  let cv name =
    let s = Obs.snapshot () in
    match List.assoc_opt name s.Obs.scounters with Some v -> v | None -> 0
  in
  let _ =
    run_loop
      [ Serve.Line (req 0); Line "garbage"; Line (req ~extra:{|,"deadline_ms":0|} 2); Eof ]
  in
  Alcotest.(check int) "requests" 3 (cv "serve.requests");
  Alcotest.(check int) "responses" 3 (cv "serve.responses");
  Alcotest.(check int) "errors" 2 (cv "serve.errors");
  Alcotest.(check int) "parse errors" 1 (cv "serve.parse_errors");
  Alcotest.(check int) "deadline exceeded" 1 (cv "serve.deadline_exceeded");
  (* a batch is one poller turn that read a line; one pipe gives one
     line per turn *)
  Alcotest.(check int) "batches" 3 (cv "serve.batches");
  Alcotest.(check int) "batch high-watermark" 1 (cv "serve.batch_size_max")

let test_minted_ids () =
  (* id-less requests get consecutive "srv-N" ids in arrival order;
     client-supplied ids are echoed byte-for-byte, untouched by minting *)
  let noid = {|{"kernel":"matvec","m":64}|} in
  let out = run_loop [ Serve.Line noid; Line (req 1); Line noid; Eof ] in
  match List.map resp_id out with
  | [ Some a; Some b; Some c ] ->
    Alcotest.(check string) "client id echoed" "r1" b;
    let num id =
      Alcotest.(check bool) ("minted prefix: " ^ id) true
        (String.length id > 4 && String.sub id 0 4 = "srv-");
      int_of_string (String.sub id 4 (String.length id - 4))
    in
    Alcotest.(check int) "minted ids consecutive in arrival order" (num a + 1) (num c)
  | ids -> Alcotest.failf "expected 3 ids, got %d" (List.length ids)

let test_serve_gauges () =
  Obs.reset ();
  (* after the drain both levels sit at zero; the watermark window shows
     each line waited for a domain and ran *)
  let _ = run_loop [ Serve.Line (req 0); Line (req 1); Line (req 2); Eof ] in
  let g = (Obs.snapshot ()).Obs.sgauges in
  (match List.assoc_opt "serve.queue_depth" g with
  | None -> Alcotest.fail "serve.queue_depth gauge missing"
  | Some st ->
    Alcotest.(check int) "queue idle after the drain" 0 st.Obs.gvalue;
    Alcotest.(check int) "window max saw one waiting line" 1 st.Obs.gmax);
  match List.assoc_opt "serve.inflight" g with
  | None -> Alcotest.fail "serve.inflight gauge missing"
  | Some st ->
    Alcotest.(check int) "nothing inflight after the drain" 0 st.Obs.gvalue;
    Alcotest.(check bool) "window max saw execution" true (st.Obs.gmax >= 1)

let test_loop_class_admission () =
  (* The per-class cap counts requests waiting for a domain. Over one
     pipe each line is read by the domain that runs it, so no line waits:
     even a cap of 1 per class answers no line overloaded, on one domain
     or on three. *)
  let sim = {|,"schedules":["optimal"]|} in
  let lines = [ req 0; req ~extra:sim 1; req 2; req ~extra:sim 3 ] in
  List.iter
    (fun jobs ->
      let cfg = { (Serve.default_config ()) with jobs; queue_capacity = 1 } in
      let out = run_loop ~cfg (List.map (fun l -> Serve.Line l) lines @ [ Serve.Eof ]) in
      Alcotest.(check (list (option string))) "arrival order"
        [ Some "r0"; Some "r1"; Some "r2"; Some "r3" ]
        (List.map resp_id out);
      Alcotest.(check (list (option string)))
        (Printf.sprintf "jobs %d: both classes admitted, none overloaded" jobs)
        [ None; None; None; None ]
        (List.map resp_error_code out))
    [ 1; 3 ]

let test_serve_class_telemetry () =
  (* One request per class: each lands in its own latency histogram and
     its own queue-depth gauge watermark. *)
  Obs.reset ();
  let out =
    run_loop
      [ Serve.Line (req 0); Line (req ~extra:{|,"schedules":["optimal"]|} 1); Eof ]
  in
  Alcotest.(check int) "both answered" 2 (List.length out);
  let s = Obs.snapshot () in
  let calls n =
    match List.assoc_opt n s.Obs.stimers with Some t -> t.Obs.tcalls | None -> 0
  in
  Alcotest.(check int) "one analytic-class request timed" 1
    (calls "serve.request.analytic");
  Alcotest.(check int) "one simulation-class request timed" 1
    (calls "serve.request.simulation");
  Alcotest.(check int) "the class histograms partition serve.request" 2
    (calls "serve.request");
  let gauge n =
    match List.assoc_opt n s.Obs.sgauges with
    | Some st -> st
    | None -> Alcotest.failf "gauge %s missing" n
  in
  List.iter
    (fun n ->
      let st = gauge n in
      Alcotest.(check int) (n ^ " idle after the drain") 0 st.Obs.gvalue;
      Alcotest.(check int) (n ^ " watermark saw its class") 1 st.Obs.gmax)
    [ "serve.queue_depth.analytic"; "serve.queue_depth.simulation" ]

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

let test_request_log_and_slow_log () =
  Obs.reset ();
  let path = Filename.temp_file "serve_log" ".jsonl" in
  Fun.protect ~finally:(fun () -> Obs.Log.disable (); Sys.remove path) @@ fun () ->
  (match Obs.Log.to_file path with
  | Error msg -> Alcotest.failf "to_file: %s" msg
  | Ok () -> ());
  Obs.Log.set_level Obs.Log.Info;
  (* slow_s = 0: every request trips the slow log *)
  let cfg = { (Serve.default_config ()) with jobs = 1; slow_s = Some 0.0 } in
  let out = run_loop ~cfg [ Serve.Line (req 0); Line {|{"kernel":"matvec","m":64}|}; Eof ] in
  Obs.Log.disable ();
  let events =
    List.map
      (fun l -> Result.get_ok (Jsonlite.parse l))
      (List.filter (fun l -> l <> "") (read_lines path))
  in
  let named name =
    List.filter (fun j -> Jsonlite.str_member "event" j = Some name) events
  in
  let field m j = Jsonlite.str_member m j in
  (* every response id appears, byte-for-byte, as a serve.request log id
     (and as the line's ambient correlation id) *)
  let log_ids = List.filter_map (field "id") (named "serve.request") in
  let resp_ids = List.filter_map resp_id out in
  Alcotest.(check (list string)) "log ids match response ids byte-for-byte"
    resp_ids log_ids;
  List.iter
    (fun j ->
      Alcotest.(check (option string)) "corr = id" (field "id" j) (field "corr" j);
      Alcotest.(check (option string)) "status ok" (Some "ok") (field "status" j))
    (named "serve.request");
  (* the slow log fired for both and carries per-stage wall times *)
  let slow = named "serve.slow_request" in
  Alcotest.(check int) "slow log per request" 2 (List.length slow);
  List.iter
    (fun j ->
      Alcotest.(check bool) "stage delta present" true
        (Jsonlite.num_member "analysis_ms" j <> None);
      Alcotest.(check bool) "total present" true (Jsonlite.num_member "ms" j <> None))
    slow

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "decode minimal" `Quick test_decode_minimal;
          Alcotest.test_case "decode full" `Quick test_decode_full;
          Alcotest.test_case "decode dsl" `Quick test_decode_dsl;
          Alcotest.test_case "decode errors" `Quick test_decode_errors;
          Alcotest.test_case "decode compile op" `Quick test_decode_compile_op;
          Alcotest.test_case "decode sweep op" `Quick test_decode_sweep_op;
          Alcotest.test_case "decode partition op" `Quick test_decode_partition_op;
          Alcotest.test_case "response shapes" `Quick test_response_shapes;
        ] );
      ( "checked",
        [
          Alcotest.test_case "run_checked" `Quick test_run_checked;
          Alcotest.test_case "kernel too large" `Quick test_run_checked_too_large;
          Alcotest.test_case "OPT trace too large" `Quick test_run_checked_opt_too_large;
        ] );
      ( "loop",
        [
          Alcotest.test_case "arrival order" `Quick test_loop_order;
          Alcotest.test_case "wait between lines" `Quick test_loop_wait_between_lines;
          Alcotest.test_case "answers before reading on" `Quick
            test_loop_answers_before_reading_on;
          Alcotest.test_case "malformed recovery" `Quick test_loop_malformed_recovery;
          Alcotest.test_case "deep JSON line" `Quick test_loop_deep_json;
          Alcotest.test_case "line length cap" `Quick test_reader_line_cap;
          Alcotest.test_case "deadline" `Quick test_loop_deadline;
          Alcotest.test_case "OPT trace too large" `Quick test_loop_opt_too_large;
          Alcotest.test_case "default deadline" `Quick test_loop_default_deadline;
          Alcotest.test_case "eof drains batch" `Quick test_loop_eof_drains;
          Alcotest.test_case "stop flag" `Quick test_loop_stop_flag;
          Alcotest.test_case "batch = sequential" `Quick test_batch_matches_sequential;
          Alcotest.test_case "compile op" `Quick test_loop_compile_op;
          Alcotest.test_case "sweep op" `Quick test_loop_sweep_op;
          Alcotest.test_case "partition op" `Quick test_loop_partition_op;
          Alcotest.test_case "partition errors" `Quick test_loop_partition_errors;
          Alcotest.test_case "version echo and warnings" `Quick
            test_loop_version_echo_and_warnings;
          Alcotest.test_case "plan-first warm-up" `Quick test_loop_plan_first_warmup;
          Alcotest.test_case "refused shape answers by LP" `Quick
            test_refused_shape_answers_by_lp;
          Alcotest.test_case "byte-mutation fuzz" `Quick test_loop_mutation_fuzz;
          Alcotest.test_case "report matches engine" `Quick test_report_matches_engine;
          Alcotest.test_case "serve counters" `Quick test_serve_counters;
          Alcotest.test_case "minted ids" `Quick test_minted_ids;
          Alcotest.test_case "queue and inflight gauges" `Quick test_serve_gauges;
          Alcotest.test_case "per-class admission" `Quick test_loop_class_admission;
          Alcotest.test_case "per-class telemetry" `Quick test_serve_class_telemetry;
          Alcotest.test_case "request and slow-request log" `Quick
            test_request_log_and_slow_log;
        ] );
    ]

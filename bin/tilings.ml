(* Command-line interface to the tiling library. Each subcommand parses
   its options, hands them to the module that owns the decision and
   prints the answer; what is left here is option parsing and
   presentation. Kernels are resolved by Request.spec_of_kernel (the
   serve decoder's resolver), requests run through Pipeline, failures
   are classified by Engine_error (which also picks the exit code), and
   the plan bundle's format is Pipeline.cache_snapshot's.

   Examples:

     tilings analyze -k "i=1024, j=1024, k=8 : C[i,k] += A[i,j]*B[j,k]" -m 4096
     tilings lower-bound -p matvec -m 1024
     tilings tile -k "x=4096, y=4096 : A[x] += B[x] * C[y]" -m 256
     tilings closed-form -k mm
     tilings simulate -p matmul -m 512 --schedule optimal --policy lru
     tilings sweep -p matmul -m 256,1024,4096 --schedules optimal,classic
     tilings profile mm --mem 4096 --iters 50
     tilings partition -k mm -p 64 -M 4096
     tilings presets

   Kernels: every per-kernel subcommand takes one kernel option, spelled
   -k/--kernel or -p/--preset, whose value is a preset name, an alias
   (mm, mv, conv, fc, bmm), a unique preset-name prefix, or a one-line
   DSL (any text containing ':'). profile takes the same value as its
   positional argument, and partition as -k/--kernel only, since its -p
   is the processor count.

   Observability: every subcommand takes --metrics (print the counter /
   timer-histogram tables for this invocation) and --trace FILE (write a
   Chrome trace-event JSON of the run, loadable in Perfetto or
   chrome://tracing, with one lane per Pool worker domain). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Kernel selection and failures                                      *)
(* ------------------------------------------------------------------ *)

let kernel_doc =
  "Kernel: a preset name (see the $(b,presets) command), an alias ($(b,mm), $(b,mv), \
   $(b,conv), $(b,fc), $(b,bmm)), a unique preset-name prefix, or a one-line DSL (any \
   text containing ':'), e.g. \"i = 64, j = 64, k = 8 : C[i,k] += A[i,j] * B[j,k]\"."

let kernel_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "k"; "kernel"; "p"; "preset" ] ~docv:"KERNEL" ~doc:kernel_doc)

let cache_arg =
  let doc = "Fast-memory (cache) size in words." in
  Arg.(value & opt int 4096 & info [ "m"; "cache" ] ~docv:"WORDS" ~doc)

(* Misuse of the command line itself stays a cmdliner usage error
   (exit 124); anything the engine diagnoses is a typed Engine_error. *)
let fail fmt = Printf.ksprintf (fun s -> `Error (false, s)) fmt

(* Typed engine errors render as one diagnostic line with the stable
   wire code, and exit with the code's own status (parse_error 2,
   invalid_spec 3, cache_too_small 4, ... — Engine_error.exit_code).
   Exiting here also guarantees a failed invocation never writes a
   --trace file or metrics table (the with_obs postlude only runs on
   success). *)
let fail_error e : 'a =
  Printf.eprintf "tilings: error [%s]: %s\n%!" (Engine_error.code e)
    (Engine_error.to_string e);
  exit (Engine_error.exit_code e)

let pp_bounds spec =
  String.concat " x " (List.map string_of_int (Array.to_list spec.Spec.bounds))

(* Runs [f] on the resolved kernel. Whatever the library aborts with
   (an Engine_error from an a-la-carte stage, Invalid_argument, Failure)
   is classified by Engine_error.of_exn and exits with its typed code,
   the same one the server puts on the wire; a Failure also names the
   kernel and its bounds. *)
let with_kernel kernel f =
  match Option.map Request.spec_of_kernel kernel with
  | None -> fail "a kernel is required: --kernel NAME|DSL (or --preset NAME)"
  | Some (Error e) -> fail_error e
  | Some (Ok spec) -> (
    try f spec with
    | Failure msg ->
      fail_error
        (Engine_error.Internal
           (Printf.sprintf "kernel %s (bounds %s): %s" spec.Spec.name (pp_bounds spec) msg))
    | exn -> ( match Engine_error.of_exn exn with Some e -> fail_error e | None -> raise exn))

let run_checked req =
  match Pipeline.run_checked req with Ok r -> r | Error e -> fail_error e

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print the observability tables (solver counters, cache/memo \
           hit rates, stage timers with p50/p90/p99 latencies) for this \
           invocation. The $(b,sweep) command instead wraps its JSON as \
           {\"reports\": ..., \"obs\": ...}.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record spans (pipeline stages, simplex solves, cache \
           simulations, pool tasks) and write a Chrome trace-event JSON \
           file on success — load it in Perfetto (ui.perfetto.dev) or \
           chrome://tracing. Parallel sweeps render one lane per worker \
           domain.")

let start_trace trace =
  if trace <> None then begin
    Obs.Trace.enable ();
    Obs.Trace.set_lane_name "main"
  end

let write_trace trace =
  match trace with
  | None -> `Ok ()
  | Some file -> (
    Obs.Trace.disable ();
    match Obs.Trace.write_file file with
    | exception Sys_error msg -> fail "--trace %s" msg
    | () ->
      Printf.eprintf "trace: %s spans (%s dropped) -> %s\n%!"
        (Obs.group_int (Obs.Trace.span_count ()))
        (Obs.group_int (Obs.Trace.dropped ()))
        file;
      `Ok ())

(* Wraps a command body: enables tracing up front when asked, and on
   success appends the per-invocation metrics delta and/or writes the
   trace file. The snapshot diff keeps earlier in-process work (there is
   none in the CLI, but the engine does warm registry handles at module
   init) out of the emitted numbers. *)
let with_obs metrics trace body =
  start_trace trace;
  let s0 = Obs.snapshot () in
  match body () with
  | `Ok () ->
    if metrics then Format.printf "%a@." Obs.pp (Obs.diff s0 (Obs.snapshot ()));
    write_trace trace
  | result -> result

let telemetry_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "telemetry" ] ~docv:"FILE"
        ~doc:
          "Export periodic metric snapshots while running: append JSONL \
           time-series records ({\"ts\",\"seq\",\"obs\"}) to $(docv), or — \
           when $(docv) ends in $(b,.om) — atomically rewrite it as an \
           OpenMetrics/Prometheus text exposition each tick. One snapshot \
           is always taken at start and one at exit. $(b,tilings top) \
           tails the JSONL form live.")

let telemetry_interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "telemetry-interval" ] ~docv:"SECONDS"
        ~doc:"Ticker period for --telemetry (default 1s).")

(* Runs the body with the periodic exporter ticking; the final snapshot
   lands in [finally] so a clean run always closes its trail. A typed
   engine failure exits the process directly (fail_error), leaving the
   start-of-run snapshot as the trail's last record — acceptable for a
   failed invocation. *)
let with_telemetry telemetry interval body =
  match telemetry with
  | None -> body ()
  | Some path -> (
    match Telemetry.start ~interval_s:interval path with
    | Error msg -> fail "--telemetry %s: %s" path msg
    | Ok t -> Fun.protect ~finally:(fun () -> Telemetry.stop t) body)

(* SIGTERM/SIGINT flip a flag the returned poll reads, so a long-running
   command finishes its current cycle (a serve batch flushes, a top
   frame renders) before it returns. *)
let stop_on_signals () =
  let stopped = Atomic.make false in
  let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stopped true) in
  List.iter
    (fun s -> try Sys.set_signal s on_stop with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigterm; Sys.sigint ];
  fun () -> Atomic.get stopped

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains: for $(b,sweep) points and $(b,serve) batches (default: \
           PROJTILE_JOBS or the recommended domain count; $(b,serve) resolves it once \
           at start), for $(b,partition --validate) block simulations, and for \
           $(b,profile) iterations (sequential without it; with it, iteration latency \
           includes queue wait).")

(* ------------------------------------------------------------------ *)
(* Commands                                                           *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run kernel m metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    Format.printf "%a@." Report.pp (run_checked (Pipeline.request spec ~m));
    `Ok ()
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Lower bound, optimal tile, and attainment for a kernel")
    Term.(ret (const run $ kernel_arg $ cache_arg $ metrics_arg $ trace_arg))

let lower_bound_cmd =
  let run kernel m metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    if m < 2 then fail_error (Engine_error.Cache_too_small { m; min_words = 2 })
    else begin
      Format.printf "%a@.%a@." Spec.pp spec Lower_bound.pp_bound (Pipeline.lower_bound spec ~m);
      `Ok ()
    end
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Arbitrary-bounds communication lower bound (Theorem 2)")
    Term.(ret (const run $ kernel_arg $ cache_arg $ metrics_arg $ trace_arg))

let tile_cmd =
  let run kernel m metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    let r = run_checked (Pipeline.request ~shared:true spec ~m) in
    let sol = r.Report.lp in
    Format.printf "%a@." Spec.pp spec;
    Format.printf "LP (5.1) value: %a (tile cardinality M^%.4f)@." Rat.pp sol.Tiling.value
      (Rat.to_float sol.Tiling.value);
    Format.printf "lambda: [%s]@."
      (String.concat "; " (List.map Rat.to_string (Array.to_list sol.Tiling.lambda)));
    Format.printf "tile (paper model, M per array): %a  volume %d@." (Tiling.pp spec)
      r.Report.tile r.Report.tile_volume;
    Option.iter
      (fun shared ->
        Format.printf "tile (shared cache of M words):  %a  volume %d@." (Tiling.pp spec)
          shared (Tiling.volume shared))
      r.Report.tile_shared;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "tile" ~doc:"Communication-optimal rectangular tile (Section 5)")
    Term.(ret (const run $ kernel_arg $ cache_arg $ metrics_arg $ trace_arg))

let closed_form_cmd =
  let run kernel metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    let cf = Closed_form.compute spec in
    Format.printf "%a@." Spec.pp spec;
    Format.printf "optimal tile cardinality = M^f with beta_i = log_M L_i and@.f(beta) = %a@."
      Closed_form.pp cf;
    `Ok ()
  in
  Cmd.v
    (Cmd.info "closed-form"
       ~doc:"Piecewise-linear closed form of the tile exponent (Section 7)")
    Term.(ret (const run $ kernel_arg $ metrics_arg $ trace_arg))

let compile_cmd =
  let run kernel all out metrics trace =
    with_obs metrics trace @@ fun () ->
    let compile specs =
      (* Distinct presets can share a canonical shape (matvec and a
         transposed matvec, say); one plan per shape is all a preload
         needs, so deduplicate by plan key. *)
      let seen = Hashtbl.create 16 in
      let plans =
        List.filter_map
          (fun spec ->
            match Pipeline.plan_of spec with
            | Error e -> fail_error e
            | Ok plan ->
              let k = Tiling_plan.key plan in
              if Hashtbl.mem seen k then None
              else begin
                Hashtbl.add seen k ();
                Some plan
              end)
          specs
      in
      let doc = Pipeline.cache_snapshot ~plans () in
      match out with
      | None ->
        print_endline doc;
        `Ok ()
      | Some file -> (
        match Out_channel.with_open_bin file (fun oc -> output_string oc (doc ^ "\n")) with
        | exception Sys_error msg -> fail "--output %s" msg
        | () ->
          Printf.eprintf "compile: %d plan%s -> %s\n%!" (List.length plans)
            (if List.length plans = 1 then "" else "s")
            file;
          `Ok ())
    in
    if not all then with_kernel kernel (fun spec -> compile [ spec ])
    else if kernel <> None then fail "give --all alone, without --kernel/--preset"
    else compile (List.map snd (Kernels.all ()))
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:"Compile a plan for every stock preset (deduplicated by kernel shape).")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the plan bundle to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile the per-shape tiling plan (Section 7 dual-vertex tables) for a \
          kernel — or every preset — as a versioned JSON bundle that $(b,serve \
          --plans) preloads; answering any (bounds, M) request from a plan needs \
          no LP solves")
    Term.(ret (const run $ kernel_arg $ all_arg $ out_arg $ metrics_arg $ trace_arg))

let schedule_conv = Arg.enum Pipeline.schedule_names
let policy_conv = Arg.enum Policy.names

let simulate_cmd =
  let run kernel m schedule policy metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    let r = run_checked (Pipeline.request ~sims:[ Pipeline.sim ~policy schedule ] spec ~m) in
    Format.printf "%a@." Spec.pp spec;
    List.iter
      (fun s -> Format.printf "%a@." (Report.pp_sim ~bound:r.Report.bound ~m) s)
      r.Report.sims;
    `Ok ()
  in
  let schedule_arg =
    Arg.(value & opt schedule_conv Pipeline.Optimal & info [ "schedule" ] ~docv:"SCHED"
           ~doc:"One of $(b,optimal), $(b,classic), $(b,untiled).")
  in
  let policy_arg =
    Arg.(value & opt policy_conv Policy.Lru & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Replacement policy: $(b,lru), $(b,fifo) or $(b,opt) (Belady).")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run the kernel on the cache simulator and count traffic")
    Term.(
      ret
        (const run $ kernel_arg $ cache_arg $ schedule_arg $ policy_arg $ metrics_arg
       $ trace_arg))

let sweep_cmd =
  let run kernel ms schedules policies jobs timings metrics trace =
    with_obs false trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    if ms = [] then fail "give at least one cache size with -m"
    else begin
      let sims = Request.sims ~schedules ~policies in
      let reqs = List.map (fun m -> Pipeline.request ~sims ~shared:true spec ~m) ms in
      (* The obs section is the delta over this sweep alone, not
         process-lifetime totals. *)
      let s0 = Obs.snapshot () in
      (* All-or-nothing at the CLI: a single bad point (cache too small,
         kernel too large to simulate) fails the invocation with its
         typed code — partial sweeps are the server's job. *)
      let reports =
        List.map
          (function Ok r -> r | Error e -> fail_error e)
          (Pipeline.sweep_checked ?jobs reqs)
      in
      let obs =
        if metrics then Some (Obs.to_json (Obs.diff s0 (Obs.snapshot ()))) else None
      in
      print_endline (Report.json_of_sweep ~timings ?obs reports);
      `Ok ()
    end
  in
  let ms_arg =
    Arg.(value & opt (list int) [ 256; 1024; 4096 ]
           & info [ "m"; "cache" ] ~docv:"M1,M2,.."
               ~doc:"Cache sizes (words) to sweep over.")
  in
  let schedules_arg =
    Arg.(value & opt (list schedule_conv) []
           & info [ "schedules" ] ~docv:"S1,S2,.."
               ~doc:"Schedules to simulate at each point ($(b,optimal), $(b,classic), \
                     $(b,untiled)); empty for analysis only.")
  in
  let policies_arg =
    Arg.(value & opt (list policy_conv) [ Policy.Lru ]
           & info [ "policies" ] ~docv:"P1,P2,.."
               ~doc:"Replacement policies to cross with the schedules.")
  in
  let timings_arg =
    Arg.(value & flag & info [ "timings" ] ~doc:"Include per-stage wall times in the JSON.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep cache sizes (and schedules/policies) in parallel; emit JSON reports")
    Term.(
      ret
        (const run $ kernel_arg $ ms_arg $ schedules_arg $ policies_arg $ jobs_arg
       $ timings_arg $ metrics_arg $ trace_arg))

let profile_cmd =
  let run name m iters cold schedule policy jobs trace telemetry telemetry_interval =
    with_obs false trace @@ fun () ->
    with_telemetry telemetry telemetry_interval @@ fun () ->
    with_kernel (Some name) @@ fun spec ->
    if iters < 1 then fail "need at least one iteration (--iters)"
    else begin
      let sims = match schedule with None -> [] | Some s -> [ Pipeline.sim ~policy s ] in
      let t_iter = Obs.timer "profile.iteration" in
      let s0 = Obs.snapshot () in
      let reqs = List.init iters (fun _ -> Pipeline.request ~sims ~shared:true spec ~m) in
      (* run_checked validates every iteration, so a cache too small or a
         kernel too large to simulate comes back as its typed error *)
      let iteration req =
        Obs.time t_iter (fun () -> Result.map ignore (Pipeline.run_checked req))
      in
      let results =
        match jobs with
        | None ->
          List.map
            (fun req ->
              if cold then Pipeline.reset_caches ();
              iteration req)
            reqs
        | Some jobs ->
          (* Parallel profiling: iteration latency includes queue
             contention; that is the point of --jobs. *)
          if cold then Pipeline.reset_caches ();
          Pool.map_list ~jobs iteration reqs
      in
      List.iter (function Error e -> fail_error e | Ok () -> ()) results;
      let d = Obs.diff s0 (Obs.snapshot ()) in
      Format.printf "profile: %s  (bounds %s)  m = %d  iters = %d%s%s@." spec.Spec.name
        (pp_bounds spec) m iters
        (match schedule with None -> "  (analysis only)" | Some _ -> "  (with simulation)")
        (if cold then "  (cold: caches reset per iteration)" else "");
      (match List.assoc_opt "profile.iteration" d.Obs.stimers with
      | Some t ->
        let dd = t.Obs.tdist in
        Format.printf "@.%-12s %10s %10s %10s %10s %10s %10s@." "" "count" "mean" "p50" "p90"
          "p99" "max";
        Format.printf "%-12s %10s %10s %10s %10s %10s %10s@." "iteration"
          (Obs.group_int dd.Obs.dcount)
          (Obs.pp_dur_ns (Obs.mean_ns dd))
          (Obs.pp_dur_ns (Obs.percentile dd 50.0))
          (Obs.pp_dur_ns (Obs.percentile dd 90.0))
          (Obs.pp_dur_ns (Obs.percentile dd 99.0))
          (Obs.pp_dur_ns (float_of_int dd.Obs.dmax_ns))
      | None -> ());
      Format.printf "@.%a@." Obs.pp d;
      `Ok ()
    end
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:kernel_doc)
  in
  let mem_arg =
    let doc = "Fast-memory (cache) size in words." in
    Arg.(value & opt int 4096 & info [ "m"; "mem"; "cache" ] ~docv:"WORDS" ~doc)
  in
  let iters_arg =
    Arg.(value & opt int 50 & info [ "iters" ] ~docv:"N" ~doc:"Number of pipeline runs.")
  in
  let cold_arg =
    Arg.(
      value & flag
      & info [ "cold" ]
          ~doc:
            "Reset the engine memo caches before each iteration, so every \
             run pays the full LP/analysis cost instead of profiling the \
             memoized path. With $(b,--jobs) the caches are reset once, \
             before the parallel run, so only the first iterations to \
             reach each stage pay that cost.")
  in
  let schedule_arg =
    Arg.(
      value
      & opt (some schedule_conv) None
      & info [ "schedule" ] ~docv:"SCHED"
          ~doc:
            "Also simulate this schedule each iteration ($(b,optimal), \
             $(b,classic), $(b,untiled)); default is analysis only.")
  in
  let policy_arg =
    Arg.(value & opt policy_conv Policy.Lru & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Replacement policy when --schedule is given.")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a kernel through the pipeline repeatedly and print latency \
          percentiles (p50/p90/p99) per stage")
    Term.(
      ret
        (const run $ name_arg $ mem_arg $ iters_arg $ cold_arg $ schedule_arg $ policy_arg
       $ jobs_arg $ trace_arg $ telemetry_arg $ telemetry_interval_arg))

let serve_cmd =
  let run socket tcp cache_dir queue jobs deadline_ms plans slow_ms log log_level
      telemetry telemetry_interval metrics trace =
    if queue < 1 then fail "queue capacity must be at least 1"
    else if deadline_ms < 0 then fail "--deadline-ms must be non-negative"
    else if (match slow_ms with Some s -> s < 0.0 | None -> false) then
      fail "--slow-ms must be non-negative"
    else if (match tcp with Some p -> p < 0 || p > 65535 | None -> false) then
      fail "--tcp must be a port number (0 picks a free one)"
    else
      (* Structured logging first, so startup events are captured too.
         stdout is the protocol stream, so "-" means stderr here. *)
      let log_sink =
        match log with
        | None -> Ok ()
        | Some "-" -> Ok (Obs.Log.to_channel stderr)
        | Some file -> Result.map_error (Printf.sprintf "--log %s: %s" file) (Obs.Log.to_file file)
      in
      match log_sink with
      | Error msg -> fail "%s" msg
      | Ok () ->
        Obs.Log.set_level log_level;
        (* A plan bundle is a cache snapshot holding only plans, so it
           loads through the snapshot reader; a bundle with any malformed
           plan fails startup. *)
        Option.iter
          (fun file ->
            let refuse msg =
              fail_error (Engine_error.Invalid_request (Printf.sprintf "--plans %s: %s" file msg))
            in
            match In_channel.with_open_bin file In_channel.input_all with
            | exception Sys_error msg -> refuse msg
            | text -> (
              match Pipeline.cache_restore text with
              | Error msg -> refuse msg
              | Ok (n, 0) -> Printf.eprintf "serve: plans: %d preloaded\n%!" n
              | Ok (_, rejected) -> refuse (Printf.sprintf "%d malformed entries" rejected)))
          plans;
        (* Warm boot: restore the memo + plan caches snapshotted by a
           previous run's drain. A missing file is a cold boot; a corrupt
           or stale one only costs the entries it damaged (reject and
           continue) — the daemon must come up either way. *)
        (match cache_dir with
        | None -> ()
        | Some dir -> (
          match Cache_store.load ~dir with
          | Ok (0, 0) -> Printf.eprintf "serve: cache: cold boot (%s)\n%!" dir
          | Ok (loaded, rejected) ->
            Printf.eprintf "serve: cache: %d entries restored, %d rejected (%s)\n%!"
              loaded rejected dir
          | Error msg -> Printf.eprintf "serve: cache: load failed, cold boot: %s\n%!" msg));
        start_trace trace;
        let s0 = Obs.snapshot () in
        (* Pool sizing is decided exactly once, here at daemon start —
           requests never re-read PROJTILE_JOBS — and both logged and
           recorded as the serve.pool_jobs gauge. *)
        let jobs, jobs_source =
          match jobs with
          | Some j -> (max 1 j, "--jobs")
          | None ->
            ( Pool.default_jobs (),
              match Sys.getenv_opt "PROJTILE_JOBS" with
              | Some s when Pool.validate_jobs s <> None -> "PROJTILE_JOBS"
              | _ -> "default" )
        in
        Obs.record_max (Obs.counter "serve.pool_jobs") jobs;
        let cfg =
          {
            Serve.jobs;
            queue_capacity = queue;
            default_deadline_s =
              (if deadline_ms = 0 then None else Some (float_of_int deadline_ms /. 1000.0));
            slow_s = Option.map (fun s -> s /. 1000.0) slow_ms;
          }
        in
        let mode =
          match (socket, tcp) with
          | None, None -> "pipe (stdin/stdout)"
          | Some p, None -> "socket " ^ p
          | None, Some port -> Printf.sprintf "tcp 127.0.0.1:%d" port
          | Some p, Some port -> Printf.sprintf "socket %s + tcp 127.0.0.1:%d" p port
        in
        Printf.eprintf "serve: pool: %d job%s (%s); queue capacity %d; mode: %s\n%!" jobs
          (if jobs = 1 then "" else "s")
          jobs_source queue mode;
        Obs.Log.info "serve.start"
          [
            ("jobs", `I jobs);
            ("queue_capacity", `I queue);
            ("mode", `S mode);
            ("level", `S (Obs.Log.level_name (Obs.Log.current_level ())));
          ];
        (* A signal lets the in-flight batch complete and flush before the
           loop exits (graceful drain). SIGPIPE is ignored so a vanished
           client surfaces as EPIPE, handled per connection. *)
        let stop = stop_on_signals () in
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ | Sys_error _ -> ());
        let served =
          with_telemetry telemetry telemetry_interval @@ fun () ->
          match
            match (socket, tcp) with
            | None, None -> Serve.run_pipe ~stop cfg
            | socket_path, tcp_port -> Serve.run_daemon ~stop cfg ?socket_path ?tcp_port ()
          with
          | exception Unix.Unix_error (err, call, _) ->
            fail "%s (%s): %s" call mode (Unix.error_message err)
          | () ->
            Obs.Log.info "serve.stop"
              [
                ("requests", `I (Obs.value (Obs.counter "serve.requests")));
                ("responses", `I (Obs.value (Obs.counter "serve.responses")));
              ];
            (* Drain-time snapshot: persist what this run learned so the
               next boot starts warm. Best-effort — a full disk must not turn
               a clean drain into a failure. *)
            (match cache_dir with
            | None -> ()
            | Some dir -> (
              match Cache_store.save ~dir with
              | Ok n ->
                Printf.eprintf "serve: cache: %d entries saved to %s\n%!" n (Cache_store.path ~dir)
              | Error msg -> Printf.eprintf "serve: cache: save failed: %s\n%!" msg));
            `Ok ()
        in
        Obs.Log.disable ();
        match served with
        | `Ok () ->
          (* Diagnostics go to stderr: stdout is the protocol stream. *)
          if metrics then Format.eprintf "%a@." Obs.pp (Obs.diff s0 (Obs.snapshot ()));
          write_trace trace
        | failed -> failed
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Listen on a Unix-domain socket at $(docv) instead of serving \
             stdin/stdout; concurrent connections are NDJSON sessions \
             batched fairly into the shared pool, each with its own \
             minted-id sequence.")
  in
  let tcp_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "tcp" ] ~docv:"PORT"
          ~doc:
            "Also (or instead) listen on TCP 127.0.0.1:$(docv); 0 picks a \
             free port, announced on stderr. Combines with $(b,--socket); \
             both listeners feed the same batch loop.")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persist the tile and compiled-plan caches: load a versioned \
             snapshot from $(docv) at boot (plans are recompiled from their \
             shape keys and tiles checked against their keys; bad entries \
             are rejected individually; a missing file is a cold boot) and \
             write one back on drain, so a restarted daemon answers repeat \
             shapes without re-solving.")
  in
  let queue_arg =
    Arg.(
      value & opt int 512
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-queue capacity: at most $(docv) requests are admitted \
             per batch cycle; further already-waiting lines are answered with \
             a structured $(b,overloaded) error instead of buffered without \
             bound.")
  in
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for batch execution (default: PROJTILE_JOBS or the \
             recommended domain count). Resolved once at daemon start.")
  in
  let deadline_arg =
    Arg.(
      value & opt int 0
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Default per-request budget applied when a request carries no \
             $(b,deadline_ms) field; 0 means no default deadline.")
  in
  let plans_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "plans" ] ~docv:"FILE"
          ~doc:
            "Preload a plan bundle written by $(b,tilings compile -o) (schema \
             {\"v\":1,\"plans\":[...]}), so requests for those kernel shapes \
             are plan-served from the very first batch, with no LP warm-up. \
             Each plan is recompiled from its shape key; the stored vertex \
             tables are not read.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Log a $(b,serve.slow_request) warning (with the request's \
             per-stage wall times) for every request taking at least $(docv) \
             milliseconds. Requires a --log sink to be visible.")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Write structured JSONL log events (ts, level, event, correlation \
             id, fields) to $(docv); $(b,-) means stderr (stdout carries the \
             protocol stream). Request events carry the same id as the \
             response line, minted $(b,srv-N) when the client sent none.")
  in
  let log_level_arg =
    let level =
      Arg.enum
        [
          ("debug", Obs.Log.Debug);
          ("info", Obs.Log.Info);
          ("warn", Obs.Log.Warn);
          ("error", Obs.Log.Error);
        ]
    in
    Arg.(
      value & opt level Obs.Log.Info
      & info [ "log-level" ] ~docv:"LEVEL"
          ~doc:
            "Minimum level written to the --log sink: $(b,debug) (adds \
             per-batch and per-pipeline-stage events), $(b,info), $(b,warn), \
             $(b,error).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running analysis daemon: newline-delimited JSON requests in, one \
          JSON response per request in arrival order; batches concurrent \
          requests into one parallel sweep over a warm memo cache")
    Term.(
      ret
        (const run $ socket_arg $ tcp_arg $ cache_dir_arg $ queue_arg $ jobs_arg
       $ deadline_arg $ plans_arg $ slow_ms_arg $ log_arg $ log_level_arg
       $ telemetry_arg $ telemetry_interval_arg $ metrics_arg $ trace_arg))

(* The distributed-memory scenario class as a one-shot command. The
   printed "partition" object is Partition_solve.to_json verbatim — the
   same bytes a serve op:"partition" response embeds, which is what the
   CLI/serve byte-identity test compares. Typed failures exit with their
   stable codes: unfactorable_p 12, network_model_invalid 13,
   cache_too_small 4, shape_too_large 11. *)
let partition_cmd =
  let run kernel procs m_local net validate jobs metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel (Some kernel) @@ fun spec ->
    let invalid_net msg = fail_error (Engine_error.Network_model_invalid msg) in
    let net =
      match net with
      | None | Some "words" -> Partition_solve.Words
      | Some s -> (
        match String.split_on_char ',' s with
        | [ a; b ] -> (
          match (Rat.of_string_opt a, Rat.of_string_opt b) with
          | Some alpha, Some beta -> Partition_solve.Alpha_beta { alpha; beta }
          | _ -> invalid_net (Printf.sprintf "cannot parse %S as ALPHA,BETA rationals" s))
        | _ -> invalid_net (Printf.sprintf "unknown network model %S (words, or ALPHA,BETA)" s))
    in
    match Pipeline.partition_checked spec ~p:procs ~m_local ~net with
    | Error e -> fail_error e
    | Ok sol ->
      let validation =
        if not validate then ""
        else
          match Pipeline.partition_validate ?jobs spec sol with
          | Error e -> fail_error e
          | Ok v ->
            Printf.sprintf
              ",\"validation\":{\"matches\":%b,\"simulated_words\":\"%s\",\"groups\":%d}"
              v.Pipeline.pv_matches
              (Bigint.to_string v.Pipeline.pv_max_words)
              (List.length v.Pipeline.pv_groups)
      in
      Printf.printf "{\"v\":2,\"partition\":%s%s}\n" (Partition_solve.to_json sol) validation;
      `Ok ()
  in
  let kernel_arg =
    Arg.(required & opt (some string) None & info [ "k"; "kernel" ] ~docv:"KERNEL" ~doc:kernel_doc)
  in
  let procs_arg =
    Arg.(value & opt int 8 & info [ "p"; "procs" ] ~docv:"P" ~doc:"Number of processors.")
  in
  let mlocal_arg =
    Arg.(
      value & opt int 4096
      & info [ "M"; "memory" ] ~docv:"WORDS"
          ~doc:"Per-processor fast-memory size in words.")
  in
  let net_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "net" ] ~docv:"MODEL"
          ~doc:
            "Network cost model: $(b,words) (default, minimize per-processor \
             words) or $(b,ALPHA,BETA) rationals (minimize alpha*messages + \
             beta*words, e.g. $(b,--net 100,1) or $(b,--net 1/2,3)).")
  in
  let validate_arg =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "Also execute the P-processor schedule on the worker pool (one \
             domain per distinct block shape) and append a \"validation\" \
             object asserting the simulated per-processor words equal the \
             model exactly.")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "Optimal processor grid, per-processor block and local tile for a \
          distributed-memory machine (Section 7)")
    Term.(
      ret
        (const run $ kernel_arg $ procs_arg $ mlocal_arg $ net_arg $ validate_arg
       $ jobs_arg $ metrics_arg $ trace_arg))

let codegen_cmd =
  let run kernel m lang untiled metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    if untiled then begin
      print_string (Codegen.emit_untiled ~lang spec);
      `Ok ()
    end
    else if m < Spec.num_arrays spec then
      fail_error (Engine_error.Cache_too_small { m; min_words = Spec.num_arrays spec })
    else begin
      print_string (Codegen.emit ~lang spec ~tile:(Pipeline.tile_shared spec ~m));
      `Ok ()
    end
  in
  let lang_arg =
    Arg.(value & opt (enum [ ("c", Codegen.C); ("ocaml", Codegen.OCaml) ]) Codegen.C
           & info [ "lang" ] ~docv:"LANG" ~doc:"Target language: $(b,c) or $(b,ocaml).")
  in
  let untiled_arg =
    Arg.(value & flag & info [ "untiled" ] ~doc:"Emit the nest as written, without tiling.")
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:"Emit compilable source for the communication-optimal tiled nest")
    Term.(
      ret
        (const run $ kernel_arg $ cache_arg $ lang_arg $ untiled_arg $ metrics_arg
       $ trace_arg))

let hierarchy_cmd =
  let run kernel caps metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    let capacities = Array.of_list caps in
    let bad_level k c =
      c < Spec.num_arrays spec || (k > 0 && c <= capacities.(k - 1))
    in
    if caps = [] then fail "give at least one cache level with --levels"
    else if List.exists Fun.id (List.mapi bad_level caps) then
      fail "levels must be strictly increasing and large enough"
    else begin
      (* an oversized kernel raises Kernel_too_large, which with_kernel
         renders with its typed exit code *)
      let h = Pipeline.hierarchy spec ~capacities in
      Format.printf "%a@." Spec.pp spec;
      List.iteri
        (fun k t ->
          Format.printf "level %d (M = %d words): tile %a@." (k + 1) capacities.(k)
            (Tiling.pp spec) t)
        h.Pipeline.htiles;
      Array.iteri
        (fun k w ->
          let dest =
            if k = Array.length capacities - 1 then "memory" else Printf.sprintf "L%d" (k + 2)
          in
          Format.printf "traffic L%d -> %s: %d words@." (k + 1) dest w)
        h.Pipeline.hresult.Executor.boundary_words;
      `Ok ()
    end
  in
  let levels_arg =
    Arg.(value & opt (list int) [ 512; 16384 ]
           & info [ "levels" ] ~docv:"M1,M2,.."
               ~doc:"Cache capacities in words, fastest first (strictly increasing).")
  in
  Cmd.v
    (Cmd.info "hierarchy"
       ~doc:"Nested tiling for a multi-level memory hierarchy, with simulated traffic")
    Term.(ret (const run $ kernel_arg $ levels_arg $ metrics_arg $ trace_arg))

let regions_cmd =
  let run kernel metrics trace =
    with_obs metrics trace @@ fun () ->
    with_kernel kernel @@ fun spec ->
    let cf = Closed_form.compute spec in
    Format.printf "%a@.f(beta) = %a@.@." Spec.pp spec Closed_form.pp cf;
    List.iter
      (fun r -> Format.printf "%a@.@." (Closed_form.pp_region ~loops:spec.Spec.loops) r)
      (Closed_form.regions cf);
    `Ok ()
  in
  Cmd.v
    (Cmd.info "regions"
       ~doc:"Critical regions of the piecewise-linear tile exponent (multiparametric view)")
    Term.(ret (const run $ kernel_arg $ metrics_arg $ trace_arg))

let top_cmd =
  let run file interval once window =
    if interval <= 0.0 then fail "--interval must be positive"
    else if window < 2 then fail "--window must be at least 2"
    else begin
      (* Tail the JSONL trail by byte offset: each pass reads only what
         the exporter appended since the last one, carrying any partial
         final line to the next pass. A shrinking file (rotation,
         truncation) restarts the tail from the top. *)
      let samples = ref [] (* newest first, trimmed to the window *) in
      let carry = Buffer.create 256 in
      let offset = ref 0 in
      let read_more () =
        match open_in_bin file with
        | exception Sys_error _ -> false
        | ic ->
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              let len = in_channel_length ic in
              if len < !offset then begin
                offset := 0;
                Buffer.clear carry
              end;
              if len > !offset then begin
                seek_in ic !offset;
                let fresh = really_input_string ic (len - !offset) in
                offset := len;
                Buffer.add_string carry fresh;
                let data = Buffer.contents carry in
                Buffer.clear carry;
                let rec go = function
                  | [] -> ()
                  | [ partial ] -> Buffer.add_string carry partial
                  | line :: rest ->
                    (match Dashboard.parse_line line with
                    | Ok s -> samples := s :: !samples
                    | Error _ -> () (* torn or foreign line: skip *));
                    go rest
                in
                go (String.split_on_char '\n' data);
                samples := List.filteri (fun i _ -> i < window) !samples
              end;
              true)
      in
      let frame () = Dashboard.render (List.rev !samples) in
      if once then
        if not (read_more ()) then fail "cannot read %s" file
        else begin
          print_string (frame ());
          `Ok ()
        end
      else begin
        let stopped = stop_on_signals () in
        while not (stopped ()) do
          let readable = read_more () in
          (* ANSI home + clear; plain enough for any terminal. *)
          print_string "\027[H\027[2J";
          print_string (frame ());
          if not readable then Printf.printf "(waiting for %s)\n" file;
          flush stdout;
          if not (stopped ()) then Thread.delay interval
        done;
        `Ok ()
      end
    end
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Telemetry JSONL trail to tail — the file a running daemon is \
             writing via $(b,serve --telemetry FILE).")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period (default 1s).")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:
            "Render a single frame from the current contents and exit \
             (no screen clearing) — for scripts and CI.")
  in
  let window_arg =
    Arg.(
      value & opt int 60
      & info [ "window" ] ~docv:"N"
          ~doc:"Number of recent samples kept for sparklines (default 60).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard over a telemetry trail: counters as rates, \
          gauges with sparklines, timer p50/p99 columns, refreshed in place")
    Term.(ret (const run $ file_arg $ interval_arg $ once_arg $ window_arg))

let presets_cmd =
  let run metrics trace =
    with_obs metrics trace
    @@ fun () ->
    List.iter
      (fun (name, spec) -> Format.printf "%-20s %a@." name Spec.pp spec)
      (Kernels.all ());
    `Ok ()
  in
  Cmd.v (Cmd.info "presets" ~doc:"List the stock kernels")
    Term.(ret (const run $ metrics_arg $ trace_arg))

let () =
  let doc = "communication-optimal tilings for projective nested loops (Dinh & Demmel, SPAA 2020)" in
  let info = Cmd.info "tilings" ~version:"1.2.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            analyze_cmd;
            lower_bound_cmd;
            tile_cmd;
            closed_form_cmd;
            compile_cmd;
            regions_cmd;
            simulate_cmd;
            sweep_cmd;
            serve_cmd;
            profile_cmd;
            hierarchy_cmd;
            partition_cmd;
            codegen_cmd;
            presets_cmd;
            top_cmd;
          ]))

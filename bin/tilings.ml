(* Command-line interface to the tiling library, built on the unified
   analysis pipeline (Pipeline, lib/engine): every subcommand is a thin
   veneer that builds a Pipeline request and renders the Report.

   Examples:

     tilings analyze -k "i=1024, j=1024, k=8 : C[i,k] += A[i,j]*B[j,k]" -m 4096
     tilings lower-bound --preset matvec -m 1024
     tilings tile -k "x=4096, y=4096 : A[x] += B[x] * C[y]" -m 256
     tilings closed-form --preset matmul
     tilings simulate --preset matmul -m 512 --schedule optimal --policy lru
     tilings sweep --preset matmul -m 256,1024,4096 --schedules optimal,classic
     tilings profile mm --mem 4096 --iters 50
     tilings partition -k mm -p 64 -M 4096
     tilings presets

   Observability: every subcommand takes --metrics (print the counter /
   timer-histogram tables for this invocation) and --trace FILE (write a
   Chrome trace-event JSON of the run, loadable in Perfetto or
   chrome://tracing, with one lane per Pool worker domain). *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Kernel selection                                                   *)
(* ------------------------------------------------------------------ *)

let preset_specs = Kernels.all ()

(* Errors in two tiers: misuse of the command line itself stays a
   cmdliner usage error (`Usage, exit 124); anything the engine can
   diagnose becomes a typed Engine_error (`Typed) rendered with its own
   exit code — see Engine_error.exit_code for the map. *)
let resolve_spec kernel preset =
  match (kernel, preset) with
  | Some dsl, None -> (
    match Parser.parse dsl with
    | Ok s -> Ok s
    | Error e ->
      Error
        (`Typed
           (Engine_error.Parse_error
              {
                line = e.Parser.pos.Parser.line;
                col = e.Parser.pos.Parser.col;
                message = e.Parser.message;
              })))
  | None, Some name -> (
    match List.assoc_opt name preset_specs with
    | Some s -> Ok s
    | None ->
      Error
        (`Typed
           (Engine_error.Invalid_spec
              (Printf.sprintf "unknown preset %S (try: %s)" name
                 (String.concat ", " (List.map fst preset_specs))))))
  | Some _, Some _ -> Error (`Usage "give either --kernel or --preset, not both")
  | None, None ->
    Error (`Usage "a kernel is required: --kernel \"<dsl>\" or --preset <name>")

let kernel_arg =
  let doc =
    "Kernel in the one-line DSL, e.g. \"i = 64, j = 64, k = 8 : C[i,k] += A[i,j] * B[j,k]\"."
  in
  Arg.(value & opt (some string) None & info [ "k"; "kernel" ] ~docv:"DSL" ~doc)

let preset_arg =
  let doc = "Use a stock kernel; see the $(b,presets) command for the list." in
  Arg.(value & opt (some string) None & info [ "p"; "preset" ] ~docv:"NAME" ~doc)

let cache_arg =
  let doc = "Fast-memory (cache) size in words." in
  Arg.(value & opt int 4096 & info [ "m"; "cache" ] ~docv:"WORDS" ~doc)

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

(* Library aborts (Closed_form / Tiling_plan refusing an oversized
   shape, say) rendered through the typed-error map, so the CLI exits
   with the same stable code ([shape_too_large], 11) the server would
   put on the wire. *)
let fail_typed_exn exn : 'a =
  match Engine_error.of_exn exn with
  | Some e -> fail_error e
  | None -> raise exn

let pp_bounds spec =
  String.concat " x " (List.map string_of_int (Array.to_list spec.Spec.bounds))

let with_spec kernel preset f =
  match resolve_spec kernel preset with
  | Error (`Usage msg) -> fail "%s" msg
  | Error (`Typed e) -> fail_error e
  | Ok spec -> (
    (* Library-level aborts (e.g. a bound whose exact footprint exceeds
       native int range reaching Bigint.to_int) become a rendered typed
       error naming the kernel and its bounds, not an uncaught
       exception. *)
    try f spec with
    | Engine_error.Error e -> fail_error e
    | Failure msg ->
      fail_error
        (Engine_error.Internal
           (Printf.sprintf "kernel %s (bounds %s): %s" spec.Spec.name (pp_bounds spec) msg)))

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

(* Wraps a command body: enables tracing up front when asked, and on
   success appends the per-invocation metrics delta and/or writes the
   trace file. The snapshot diff keeps earlier in-process work (there is
   none in the CLI, but the engine does warm registry handles at module
   init) out of the emitted numbers. *)
let with_obs metrics trace body =
  if trace <> None then begin
    Obs.Trace.enable ();
    Obs.Trace.set_lane_name "main"
  end;
  let s0 = Obs.snapshot () in
  let result = body () in
  (match result with
  | `Ok () ->
    if metrics then Format.printf "%a@." Obs.pp (Obs.diff s0 (Obs.snapshot ()));
    Option.iter
      (fun file ->
        Obs.Trace.disable ();
        Obs.Trace.write_file file;
        Printf.eprintf "trace: %s spans (%s dropped) -> %s\n%!"
          (Obs.group_int (Obs.Trace.span_count ()))
          (Obs.group_int (Obs.Trace.dropped ()))
          file)
      trace
  | _ -> ());
  result

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

(* ------------------------------------------------------------------ *)
(* Commands                                                           *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run kernel preset m metrics trace =
    with_obs metrics trace (fun () ->
      with_spec kernel preset (fun spec ->
        match Pipeline.run_checked (Pipeline.request spec ~m) with
        | Error e -> fail_error e
        | Ok r ->
          Format.printf "%a@." Report.pp r;
          `Ok ()))
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Lower bound, optimal tile, and attainment for a kernel")
    Term.(ret (const run $ kernel_arg $ preset_arg $ cache_arg $ metrics_arg $ trace_arg))

let lower_bound_cmd =
  let run kernel preset m metrics trace =
    with_obs metrics trace (fun () ->
      with_spec kernel preset (fun spec ->
        if m < 2 then fail_error (Engine_error.Cache_too_small { m; min_words = 2 })
        else begin
          Format.printf "%a@.%a@." Spec.pp spec Lower_bound.pp_bound
            (Pipeline.lower_bound spec ~m);
          `Ok ()
        end))
  in
  Cmd.v
    (Cmd.info "lower-bound" ~doc:"Arbitrary-bounds communication lower bound (Theorem 2)")
    Term.(ret (const run $ kernel_arg $ preset_arg $ cache_arg $ metrics_arg $ trace_arg))

let tile_cmd =
  let run kernel preset m metrics trace =
    with_obs metrics trace
    @@ fun () ->
    with_spec kernel preset (fun spec ->
      match Pipeline.run_checked (Pipeline.request ~shared:true spec ~m) with
      | Error e -> fail_error e
      | Ok r ->
        let sol = r.Report.lp in
        Format.printf "%a@." Spec.pp spec;
        Format.printf "LP (5.1) value: %a (tile cardinality M^%.4f)@." Rat.pp sol.Tiling.value
          (Rat.to_float sol.Tiling.value);
        Format.printf "lambda: [%s]@."
          (String.concat "; " (List.map Rat.to_string (Array.to_list sol.Tiling.lambda)));
        Format.printf "tile (paper model, M per array): %a  volume %d@." (Tiling.pp spec)
          r.Report.tile r.Report.tile_volume;
        (match r.Report.tile_shared with
        | Some shared ->
          Format.printf "tile (shared cache of M words):  %a  volume %d@." (Tiling.pp spec)
            shared (Tiling.volume shared)
        | None -> ());
        `Ok ())
  in
  Cmd.v
    (Cmd.info "tile" ~doc:"Communication-optimal rectangular tile (Section 5)")
    Term.(ret (const run $ kernel_arg $ preset_arg $ cache_arg $ metrics_arg $ trace_arg))

let closed_form_cmd =
  let run kernel preset metrics trace =
    with_obs metrics trace
    @@ fun () ->
    with_spec kernel preset (fun spec ->
      match Closed_form.compute spec with
      | cf ->
        Format.printf "%a@." Spec.pp spec;
        Format.printf
          "optimal tile cardinality = M^f with beta_i = log_M L_i and@.f(beta) = %a@."
          Closed_form.pp cf;
        `Ok ()
      | exception (Invalid_argument _ as exn) -> fail_typed_exn exn)
  in
  Cmd.v
    (Cmd.info "closed-form"
       ~doc:"Piecewise-linear closed form of the tile exponent (Section 7)")
    Term.(ret (const run $ kernel_arg $ preset_arg $ metrics_arg $ trace_arg))

(* A versioned plan bundle, the interchange format between [compile -o]
   and [serve --plans]. *)
let plans_doc plans =
  Printf.sprintf "{\"v\":1,\"plans\":[%s]}"
    (String.concat "," (List.map Tiling_plan.to_json plans))

let load_plans file =
  match Jsonlite.of_file file with
  | Error msg -> Error (Printf.sprintf "--plans %s: %s" file msg)
  | Ok json -> (
    match Jsonlite.num_member "v" json with
    | Some 1.0 -> (
      match Jsonlite.list_member "plans" json with
      | None -> Error (Printf.sprintf "--plans %s: expected a \"plans\" array" file)
      | Some items ->
        let rec go n = function
          | [] -> Ok n
          | item :: rest -> (
            match Tiling_plan.of_json item with
            | Error msg -> Error (Printf.sprintf "--plans %s: plan %d: %s" file n msg)
            | Ok plan ->
              Pipeline.install_plan plan;
              go (n + 1) rest)
        in
        go 0 items)
    | Some v -> Error (Printf.sprintf "--plans %s: unsupported version %g (expected 1)" file v)
    | None -> Error (Printf.sprintf "--plans %s: expected {\"v\":1,\"plans\":[...]}" file))

let compile_cmd =
  let run kernel preset all out metrics trace =
    with_obs metrics trace
    @@ fun () ->
    let specs =
      if all then
        if kernel <> None || preset <> None then
          Error (`Usage "give --all alone, without --kernel/--preset")
        else Ok (List.map snd preset_specs)
      else Result.map (fun s -> [ s ]) (resolve_spec kernel preset)
    in
    match specs with
    | Error (`Usage msg) -> fail "%s" msg
    | Error (`Typed e) -> fail_error e
    | Ok specs ->
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
      let doc = plans_doc plans in
      (match out with
      | None -> print_endline doc
      | Some file ->
        let oc = open_out file in
        output_string oc doc;
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "compile: %d plan%s -> %s\n%!" (List.length plans)
          (if List.length plans = 1 then "" else "s")
          file);
      `Ok ()
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
    Term.(
      ret (const run $ kernel_arg $ preset_arg $ all_arg $ out_arg $ metrics_arg $ trace_arg))

let schedule_conv = Arg.enum Pipeline.schedule_names
let policy_conv = Arg.enum Policy.names

let simulate_cmd =
  let run kernel preset m schedule policy metrics trace =
    with_obs metrics trace
    @@ fun () ->
    with_spec kernel preset (fun spec ->
      match
        Pipeline.run_checked
          (Pipeline.request ~sims:[ Pipeline.sim ~policy schedule ] spec ~m)
      with
      | Error e -> fail_error e
      | Ok r ->
        Format.printf "%a@." Spec.pp spec;
        List.iter
          (fun s -> Format.printf "%a@." (Report.pp_sim ~bound:r.Report.bound ~m) s)
          r.Report.sims;
        `Ok ())
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
        (const run $ kernel_arg $ preset_arg $ cache_arg $ schedule_arg $ policy_arg
       $ metrics_arg $ trace_arg))

let sweep_cmd =
  let run kernel preset ms schedules policies jobs timings metrics trace =
    with_obs false trace
    @@ fun () ->
    with_spec kernel preset (fun spec ->
      if ms = [] then fail "give at least one cache size with -m"
      else begin
        let sims =
          List.concat_map
            (fun sched -> List.map (fun policy -> Pipeline.sim ~policy sched) policies)
            schedules
        in
        let reqs = List.map (fun m -> Pipeline.request ~sims ~shared:true spec ~m) ms in
        (* The obs section is the delta over this sweep alone, not
           process-lifetime totals. *)
        let s0 = Obs.snapshot () in
        let results = Pipeline.sweep_checked ?jobs reqs in
        (* All-or-nothing at the CLI: a single bad point (cache too
           small, kernel too large to simulate) fails the invocation
           with its typed code — partial sweeps are the server's job. *)
        match
          List.find_map (function Error e -> Some e | Ok _ -> None) results
        with
        | Some e -> fail_error e
        | None ->
          let reports =
            List.filter_map (function Ok r -> Some r | Error _ -> None) results
          in
          let obs =
            if metrics then Some (Obs.to_json (Obs.diff s0 (Obs.snapshot ()))) else None
          in
          print_endline (Report.json_of_sweep ~timings ?obs reports);
          `Ok ()
      end)
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
  let jobs_arg =
    Arg.(value & opt (some int) None
           & info [ "jobs" ] ~docv:"N"
               ~doc:"Worker domains for the sweep (default: PROJTILE_JOBS or the \
                     recommended domain count).")
  in
  let timings_arg =
    Arg.(value & flag & info [ "timings" ] ~doc:"Include per-stage wall times in the JSON.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Sweep cache sizes (and schedules/policies) in parallel; emit JSON reports")
    Term.(
      ret
        (const run $ kernel_arg $ preset_arg $ ms_arg $ schedules_arg $ policies_arg
       $ jobs_arg $ timings_arg $ metrics_arg $ trace_arg))

let profile_cmd =
  let run name m iters cold schedule policy jobs trace telemetry telemetry_interval =
    with_obs false trace
    @@ fun () ->
    with_telemetry telemetry telemetry_interval
    @@ fun () ->
    match Request.spec_of_kernel name with
    | Error e -> fail_error e
    | Ok spec -> (
      if iters < 1 then fail "need at least one iteration (--iters)"
      else
        let sims = match schedule with None -> [] | Some s -> [ Pipeline.sim ~policy s ] in
        let t_iter = Obs.timer "profile.iteration" in
        let s0 = Obs.snapshot () in
        let reqs = List.init iters (fun _ -> Pipeline.request ~sims ~shared:true spec ~m) in
        (* run_checked validates every iteration, so a cache too small or
           a kernel too large to simulate comes back as its typed error *)
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
        match List.find_map (function Error e -> Some e | Ok () -> None) results with
        | Some e -> fail_error e
        | None ->
          let d = Obs.diff s0 (Obs.snapshot ()) in
          Format.printf "profile: %s  (bounds %s)  m = %d  iters = %d%s%s@." spec.Spec.name
            (pp_bounds spec) m iters
            (match schedule with None -> "  (analysis only)" | Some _ -> "  (with simulation)")
            (if cold then "  (cold: caches reset per iteration)" else "");
          (match List.assoc_opt "profile.iteration" d.Obs.stimers with
          | Some t ->
            let dd = t.Obs.tdist in
            Format.printf "@.%-12s %10s %10s %10s %10s %10s %10s@." "" "count" "mean" "p50"
              "p90" "p99" "max";
            Format.printf "%-12s %10s %10s %10s %10s %10s %10s@." "iteration"
              (Obs.group_int dd.Obs.dcount)
              (Obs.pp_dur_ns (Obs.mean_ns dd))
              (Obs.pp_dur_ns (Obs.percentile dd 50.0))
              (Obs.pp_dur_ns (Obs.percentile dd 90.0))
              (Obs.pp_dur_ns (Obs.percentile dd 99.0))
              (Obs.pp_dur_ns (float_of_int dd.Obs.dmax_ns))
          | None -> ());
          Format.printf "@.%a@." Obs.pp d;
          `Ok ())
  in
  let name_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KERNEL"
          ~doc:
            "Kernel to profile: a preset name ($(b,matmul)), a shorthand \
             ($(b,mm), $(b,mv), $(b,conv), $(b,fc), $(b,bmm)), a unique \
             preset-name prefix, or a one-line DSL string.")
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
  let jobs_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run the iterations through the worker pool with N domains \
             instead of sequentially; iteration latency then includes \
             queue wait.")
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
    else begin
      (* Structured logging first, so startup events are captured too.
         stdout is the protocol stream, so "-" means stderr here. *)
      Obs.Log.set_level log_level;
      (match log with
      | None -> ()
      | Some "-" -> Obs.Log.to_channel stderr
      | Some file -> (
        match Obs.Log.to_file file with
        | Ok () -> ()
        | Error msg ->
          Printf.eprintf "tilings: --log %s: %s\n%!" file msg;
          exit 124));
      (* The daemon defers plan compilation to batch boundaries: a new
         shape is answered on the LP path first, its plan compiles after
         the responses flush (Serve's warm-up contract). Preloaded plans
         skip even that first LP round. *)
      Pipeline.set_plan_mode Pipeline.Plan_deferred;
      (match plans with
      | None -> ()
      | Some file -> (
        match load_plans file with
        | Ok n -> Printf.eprintf "serve: plans: %d preloaded\n%!" n
        | Error msg -> fail_error (Engine_error.Invalid_request msg)));
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
      if trace <> None then begin
        Obs.Trace.enable ();
        Obs.Trace.set_lane_name "main"
      end;
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
      (* SIGTERM/SIGINT flip a flag: the in-flight batch completes and
         flushes before the loop exits (graceful drain). SIGPIPE is
         ignored so a vanished client surfaces as EPIPE, handled per
         connection. *)
      let stopped = Atomic.make false in
      let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stopped true) in
      (try Sys.set_signal Sys.sigterm on_stop with Invalid_argument _ | Sys_error _ -> ());
      (try Sys.set_signal Sys.sigint on_stop with Invalid_argument _ | Sys_error _ -> ());
      (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
       with Invalid_argument _ | Sys_error _ -> ());
      let stop () = Atomic.get stopped in
      let tel =
        match telemetry with
        | None -> None
        | Some path -> (
          match Telemetry.start ~interval_s:telemetry_interval path with
          | Ok t -> Some t
          | Error msg ->
            Printf.eprintf "tilings: --telemetry %s: %s\n%!" path msg;
            exit 124)
      in
      (match (socket, tcp) with
      | None, None -> Serve.run_pipe ~stop cfg
      | socket_path, tcp_port -> Serve.run_daemon ~stop cfg ?socket_path ?tcp_port ());
      Obs.Log.info "serve.stop"
        [
          ("requests", `I (Obs.value (Obs.counter "serve.requests")));
          ("responses", `I (Obs.value (Obs.counter "serve.responses")));
        ];
      (* Drain-time snapshot: persist what this run learned so the next
         boot starts warm. Best-effort — a full disk must not turn a
         clean drain into a failure. *)
      (match cache_dir with
      | None -> ()
      | Some dir -> (
        match Cache_store.save ~dir with
        | Ok n -> Printf.eprintf "serve: cache: %d entries saved to %s\n%!" n (Cache_store.path ~dir)
        | Error msg -> Printf.eprintf "serve: cache: save failed: %s\n%!" msg));
      Option.iter Telemetry.stop tel;
      Obs.Log.disable ();
      (* Diagnostics go to stderr: stdout is the protocol stream. *)
      if metrics then Format.eprintf "%a@." Obs.pp (Obs.diff s0 (Obs.snapshot ()));
      Option.iter
        (fun file ->
          Obs.Trace.disable ();
          Obs.Trace.write_file file;
          Printf.eprintf "trace: %s spans (%s dropped) -> %s\n%!"
            (Obs.group_int (Obs.Trace.span_count ()))
            (Obs.group_int (Obs.Trace.dropped ()))
            file)
        trace;
      `Ok ()
    end
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
            "Persist the memo and compiled-plan caches: load a versioned \
             snapshot from $(docv) at boot (corrupt entries are rejected \
             individually; a missing file is a cold boot) and write one \
             back on drain, so a restarted daemon answers repeat shapes \
             without re-solving.")
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
             are plan-served from the very first batch, with no LP warm-up.")
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
    with_obs metrics trace
    @@ fun () ->
    match Request.spec_of_kernel kernel with
    | Error e -> fail_error e
    | Ok spec -> (
      let net =
        match net with
        | None | Some "words" -> Ok Partition_solve.Words
        | Some s -> (
          match String.split_on_char ',' s with
          | [ a; b ] -> (
            match (Rat.of_string_opt a, Rat.of_string_opt b) with
            | Some alpha, Some beta -> Ok (Partition_solve.Alpha_beta { alpha; beta })
            | _ ->
              Error
                (Engine_error.Network_model_invalid
                   (Printf.sprintf "cannot parse %S as ALPHA,BETA rationals" s)))
          | _ ->
            Error
              (Engine_error.Network_model_invalid
                 (Printf.sprintf "unknown network model %S (words, or ALPHA,BETA)" s)))
      in
      match net with
      | Error e -> fail_error e
      | Ok net -> (
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
          Printf.printf "{\"v\":2,\"partition\":%s%s}\n"
            (Partition_solve.to_json sol) validation;
          `Ok ()))
  in
  let kernel_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "k"; "kernel" ] ~docv:"KERNEL"
          ~doc:"Kernel: preset name, alias, unique prefix, or one-line DSL.")
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
  let jobs_arg =
    Arg.(
      value & opt (some int) None
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains for --validate.")
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
  let run kernel preset m lang untiled metrics trace =
    with_obs metrics trace
    @@ fun () ->
    with_spec kernel preset (fun spec ->
      let lang = match lang with `C -> Codegen.C | `OCaml -> Codegen.OCaml in
      if untiled then begin
        print_string (Codegen.emit_untiled ~lang spec);
        `Ok ()
      end
      else if m < Spec.num_arrays spec then
        fail_error (Engine_error.Cache_too_small { m; min_words = Spec.num_arrays spec })
      else begin
        let tile = Pipeline.tile_shared spec ~m in
        print_string (Codegen.emit ~lang spec ~tile);
        `Ok ()
      end)
  in
  let lang_arg =
    Arg.(value & opt (enum [ ("c", `C); ("ocaml", `OCaml) ]) `C
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
        (const run $ kernel_arg $ preset_arg $ cache_arg $ lang_arg $ untiled_arg
       $ metrics_arg $ trace_arg))

let hierarchy_cmd =
  let run kernel preset caps metrics trace =
    with_obs metrics trace
    @@ fun () ->
    with_spec kernel preset (fun spec ->
      match caps with
      | [] -> fail "give at least one cache level with --levels"
      | _ ->
        let capacities = Array.of_list caps in
        let ok = ref true in
        Array.iteri
          (fun k c ->
            if c < Spec.num_arrays spec || (k > 0 && c <= capacities.(k - 1)) then ok := false)
          capacities;
        if not !ok then fail "levels must be strictly increasing and large enough"
        else begin
          (* an oversized kernel raises Kernel_too_large, which with_spec
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
                if k = Array.length capacities - 1 then "memory"
                else Printf.sprintf "L%d" (k + 2)
              in
              Format.printf "traffic L%d -> %s: %d words@." (k + 1) dest w)
            h.Pipeline.hresult.Executor.boundary_words;
          `Ok ()
        end)
  in
  let levels_arg =
    Arg.(value & opt (list int) [ 512; 16384 ]
           & info [ "levels" ] ~docv:"M1,M2,.."
               ~doc:"Cache capacities in words, fastest first (strictly increasing).")
  in
  Cmd.v
    (Cmd.info "hierarchy"
       ~doc:"Nested tiling for a multi-level memory hierarchy, with simulated traffic")
    Term.(ret (const run $ kernel_arg $ preset_arg $ levels_arg $ metrics_arg $ trace_arg))

let regions_cmd =
  let run kernel preset metrics trace =
    with_obs metrics trace
    @@ fun () ->
    with_spec kernel preset (fun spec ->
      match Closed_form.compute spec with
      | cf ->
        Format.printf "%a@.f(beta) = %a@.@." Spec.pp spec Closed_form.pp cf;
        List.iter
          (fun r -> Format.printf "%a@.@." (Closed_form.pp_region ~loops:spec.Spec.loops) r)
          (Closed_form.regions cf);
        `Ok ()
      | exception (Invalid_argument _ as exn) -> fail_typed_exn exn)
  in
  Cmd.v
    (Cmd.info "regions"
       ~doc:"Critical regions of the piecewise-linear tile exponent (multiparametric view)")
    Term.(ret (const run $ kernel_arg $ preset_arg $ metrics_arg $ trace_arg))

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
        let stopped = Atomic.make false in
        let on_stop = Sys.Signal_handle (fun _ -> Atomic.set stopped true) in
        (try Sys.set_signal Sys.sigterm on_stop with Invalid_argument _ | Sys_error _ -> ());
        (try Sys.set_signal Sys.sigint on_stop with Invalid_argument _ | Sys_error _ -> ());
        while not (Atomic.get stopped) do
          let readable = read_more () in
          (* ANSI home + clear; plain enough for any terminal. *)
          print_string "\027[H\027[2J";
          print_string (frame ());
          if not readable then Printf.printf "(waiting for %s)\n" file;
          flush stdout;
          if not (Atomic.get stopped) then Thread.delay interval
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
      preset_specs;
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

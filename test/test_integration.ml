(* End-to-end pipelines: DSL text -> analysis -> integer tiling ->
   simulated execution, cross-checking analytic and measured traffic
   against the lower bound for each stock kernel. *)

let analyze spec ~m =
  match Pipeline.run_checked (Pipeline.request spec ~m) with
  | Ok report -> report
  | Error e -> Alcotest.failf "analysis failed: %s" (Engine_error.to_string e)

let analyze_text ?name text ~m = analyze (Parser.parse_exn ?name text) ~m

let test_dsl_to_simulation_matmul () =
  let report = analyze_text "i = 48, j = 48, k = 48 : C[i,k] += A[i,j] * B[j,k]" ~m:512 in
  let spec = report.Report.spec in
  (* re-derive a tile under the per-array model scaled for a shared cache *)
  let tile = Tiling.optimal spec ~m:(512 / 3) in
  let run = Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:512 in
  let ratio = float_of_int run.Executor.words_moved /. report.Report.bound.Lower_bound.words in
  Alcotest.(check bool) "1 <= measured/bound <= 8" true (ratio >= 0.999 && ratio <= 8.0)

let test_all_kernels_pipeline () =
  List.iter
    (fun (name, spec) ->
      let m = 1024 in
      let report = analyze spec ~m in
      Alcotest.(check bool) (name ^ ": tile feasible") true
        (Tiling.is_feasible spec ~m report.Report.tile);
      Alcotest.(check bool) (name ^ ": bound positive") true
        (report.Report.bound.Lower_bound.words > 0.0);
      (* analytic traffic of the constructed tiling never beats the bound *)
      let moved = report.Report.traffic.Tiling.reads +. report.Report.traffic.Tiling.writes in
      Alcotest.(check bool) (name ^ ": analytic >= bound") true
        (moved >= report.Report.bound.Lower_bound.words *. 0.999))
    (Kernels.all ())

let test_small_kernels_measured_vs_analytic () =
  (* For kernels small enough to simulate, LRU-measured traffic of the
     tiled schedule should not exceed the analytic load-per-tile model by
     much (the model is what the theory accounts), and never fall below
     the lower bound. *)
  let cases =
    [
      ("matmul", Kernels.matmul ~l1:24 ~l2:24 ~l3:24, 256);
      ("matvec", Kernels.matvec ~m:64 ~n:64, 256);
      ("conv", Kernels.pointwise_conv ~b:4 ~c:8 ~k:8 ~w:6 ~h:6, 256);
      ("nbody", Kernels.nbody ~l1:128 ~l2:128, 256);
      ("outer", Kernels.outer_product ~m:64 ~n:64, 256);
    ]
  in
  List.iter
    (fun (name, spec, m) ->
      let n = Spec.num_arrays spec in
      let tile = Tiling.optimal spec ~m:(m / n) in
      let run = Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:m in
      let analytic = Tiling.analytic_traffic spec tile in
      let analytic_total = analytic.Tiling.reads +. analytic.Tiling.writes in
      let bound = (Pipeline.lower_bound spec ~m).Lower_bound.words in
      let measured = float_of_int run.Executor.words_moved in
      if measured < bound *. 0.999 then
        Alcotest.failf "%s: measured %.0f below bound %.0f" name measured bound;
      if measured > analytic_total *. 2.0 +. 64.0 then
        Alcotest.failf "%s: measured %.0f far above analytic %.0f" name measured analytic_total)
    cases

let test_conv_motivating_example () =
  (* The paper's ML motivation: pointwise convolution with few channels.
     The classic tiling is infeasible; ours adapts and still attains the
     bound. *)
  let spec = Kernels.pointwise_conv ~b:8 ~c:4 ~k:8 ~w:8 ~h:8 in
  let m = 2048 in
  let classic = Schedules.classic_tile ~clamp:false spec ~m in
  (match Schedules.validate spec (Schedules.Tiled classic) with
  | Ok () -> Alcotest.fail "classic tile should be infeasible (c=4 < side)"
  | Error _ -> ());
  let report = analyze spec ~m in
  Alcotest.(check bool) "our tile feasible" true
    (Tiling.is_feasible spec ~m report.Report.tile);
  Alcotest.(check bool) "attainment" true (report.Report.attainment <= 8.0)

let test_report_pp_renders () =
  let report = analyze (Kernels.matmul ~l1:32 ~l2:32 ~l3:4) ~m:256 in
  let s = Format.asprintf "%a" Report.pp report in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " in report") true (Astring.String.is_infix ~affix:frag s))
    [ "matmul"; "lower bound"; "tile"; "attainment" ]

let test_closed_form_consistent_with_communication () =
  (* Pipeline.lower_bound and Closed_form agree on the exponent. *)
  let spec = Kernels.matmul ~l1:512 ~l2:512 ~l3:4 in
  let m = 4096 in
  let cf = Closed_form.compute spec in
  let beta = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
  let k_cf = Closed_form.eval cf beta in
  let b = Pipeline.lower_bound spec ~m in
  Alcotest.(check bool) "same exponent" true (Rat.equal k_cf b.Lower_bound.exponent.Lower_bound.k_hat)

let test_alpha_family_same_traffic () =
  (* All members of the alpha family generate (nearly) the same measured
     communication — they are all optimal. *)
  let m = 3072 in
  let spec = Kernels.matmul ~l1:128 ~l2:128 ~l3:4 in
  let runs =
    List.map
      (fun (_, tile) ->
        (Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:m).Executor.words_moved)
      (Alpha_family.sample ~steps:4 spec ~m:(m / 3))
  in
  let lo = List.fold_left min max_int runs and hi = List.fold_left max 0 runs in
  Alcotest.(check bool)
    (Printf.sprintf "spread [%d, %d] within 2.5x" lo hi)
    true
    (float_of_int hi /. float_of_int lo < 2.5)

let () =
  Alcotest.run "integration"
    [
      ( "pipelines",
        [
          Alcotest.test_case "DSL to simulation" `Quick test_dsl_to_simulation_matmul;
          Alcotest.test_case "all kernels analyze" `Quick test_all_kernels_pipeline;
          Alcotest.test_case "measured vs analytic" `Quick test_small_kernels_measured_vs_analytic;
          Alcotest.test_case "conv motivation" `Quick test_conv_motivating_example;
          Alcotest.test_case "report rendering" `Quick test_report_pp_renders;
          Alcotest.test_case "closed form vs communication" `Quick
            test_closed_form_consistent_with_communication;
          Alcotest.test_case "alpha family traffic" `Quick test_alpha_family_same_traffic;
        ] );
    ]

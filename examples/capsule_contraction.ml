(* An "unconventional kernel" tensor contraction — the Section 1
   motivation about architectures (capsule networks and friends) that lack
   hand-optimized kernels.

   The point of the paper's generality: you do not need a vendor library
   or a hand analysis to get a communication-optimal schedule for a niche
   contraction. We take a 5-loop contraction with deliberately lopsided
   bounds, derive its bound + tiling automatically, print the piecewise
   closed form of the tile exponent, and check the schedule on the
   simulator. Also shows the DSL and the Theorem-2 witness set Q.

     dune exec examples/capsule_contraction.exe
*)

let () =
  let m = 4096 in
  (* A capsule-style routing contraction: poses indexed by (input capsule
     i, output capsule o, pose row p, pose col q), batch b. Small pose
     dims (4) and modest capsule counts make every classical analysis
     break: several loop bounds are far below sqrt(M). *)
  let spec =
    Parser.parse_exn ~name:"capsule-routing"
      "b = 128, i = 64, o = 64, p = 4, q = 4 : V[b,i,o,p] += Pose[b,i,p,q] * W[i,o,q]"
  in
  Format.printf "%a@.@." Spec.pp spec;

  (* One engine request covers the analysis, the shared-cache tile, and
     all three simulated schedules. *)
  let sims = Pipeline.[ sim Optimal; sim Classic; sim Untiled ] in
  let report =
    match Pipeline.run_checked (Pipeline.request ~sims ~shared:true spec ~m) with
    | Ok r -> r
    | Error e -> Engine_error.raise_error e
  in
  Format.printf "%a@.@." Report.pp report;

  let e = report.Report.bound.Lower_bound.exponent in
  Format.printf "Theorem-2 witness Q (small loops) = {%s}@."
    (String.concat ", "
       (List.map (fun i -> spec.Spec.loops.(i)) e.Lower_bound.witness_q));

  let cf = Closed_form.compute spec in
  Format.printf "tile exponent closed form: %a@.@." Closed_form.pp cf;

  let words k = (List.nth report.Report.sims k).Report.words_moved in
  Format.printf "simulated words moved (LRU, M = %d):@." m;
  Format.printf "  bound-aware tile %-18s: %8d@."
    (Format.asprintf "%a" (Tiling.pp spec) (Option.get report.Report.tile_shared))
    (words 0);
  Format.printf "  clamped classic  %-18s: %8d@."
    (Format.asprintf "%a" (Tiling.pp spec) (Schedules.classic_tile spec ~m))
    (words 1);
  Format.printf "  untiled                            : %8d@." (words 2);
  Format.printf "  lower bound                        : %8.0f@."
    report.Report.bound.Lower_bound.words

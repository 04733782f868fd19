(* Reproduction harness: regenerates every quantitative claim of the
   paper's evaluation (Sections 3-7, worked examples in Section 6) as
   experiment tables E1..E20 (see DESIGN.md for the per-experiment index
   and EXPERIMENTS.md for recorded paper-vs-measured results), followed by
   Bechamel microbenchmarks of the solver components.

   The tables are driven by the unified analysis pipeline (Pipeline):
   repeated (spec, beta, M) analyses hit the memo cache, independent
   sweep points run in parallel over domains (PROJTILE_JOBS overrides the
   pool size), and each experiment's wall time plus its headline
   words-moved numbers are also written to BENCH_engine.json.

     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- tables  # experiment tables only
     dune exec bench/main.exe -- micro   # microbenchmarks only
*)

let rowf fmt = Printf.printf fmt

let fint = float_of_int

(* ------------------------------------------------------------------ *)
(* Experiment harness: timing + machine-readable results               *)
(* ------------------------------------------------------------------ *)

type outcome = { id : string; title : string; seconds : float; words : (string * float) list }

let outcomes : outcome list ref = ref []
let current_words : (string * float) list ref = ref []

(* Record a headline words-moved (or words-bound) number for the JSON. *)
let note label words = current_words := (label, words) :: !current_words
let note_int label words = note label (fint words)

(* Repeat runs that only steady a measured figure (E19's median over
   interleaved arm pairs) stay out of the cost accounting: their wall
   time is not charged to the experiment's seconds and their obs delta
   is taken out of the JSON's obs totals, so the per-experiment time
   gate and the aggregate timer gates keep measuring the same workload.
   (A watermark counter raised by a repeat run reads low by that rise.) *)
let repeat_seconds = ref 0.0
let repeat_obs : Obs.snapshot list ref = ref []

let repeat_run f =
  let s0 = Obs.snapshot () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  repeat_seconds := !repeat_seconds +. (Unix.gettimeofday () -. t0);
  repeat_obs := Obs.diff s0 (Obs.snapshot ()) :: !repeat_obs;
  r

let experiment id title body =
  Printf.printf "\n==== %s: %s ====\n" id title;
  current_words := [];
  repeat_seconds := 0.0;
  let t0 = Unix.gettimeofday () in
  body ();
  let dt = Unix.gettimeofday () -. t0 -. !repeat_seconds in
  outcomes := { id; title; seconds = dt; words = List.rev !current_words } :: !outcomes;
  if !repeat_seconds > 0.0 then
    Printf.printf "[%s: %.3f s, plus %.3f s of repeat runs]\n" id dt !repeat_seconds
  else Printf.printf "[%s: %.3f s]\n" id dt

(* [s0] is the snapshot taken before any experiment ran: the obs section
   is the delta over this bench invocation, not process-lifetime totals
   (the distinction matters once bench is driven as a library or the
   tables are rerun in-process), less the [repeat_run] deltas. *)
let write_json ~s0 path =
  let oc = open_out path in
  let hits, misses = Pipeline.cache_stats () in
  (* "ts" (write time, unix seconds) is informational: compare.exe
     ignores it, like every other field it does not recognize. *)
  Printf.fprintf oc "{\"v\":%d,\"ts\":%.6f,\"engine_cache\":{" Report.schema_version
    (Unix.gettimeofday ());
  Printf.fprintf oc "\"hits\":%d,\"misses\":%d}," hits misses;
  let run = Obs.diff s0 (Obs.snapshot ()) in
  Printf.fprintf oc "\"obs\":%s,\"experiments\":["
    (Obs.to_json (List.fold_left (fun acc r -> Obs.diff r acc) run !repeat_obs));
  List.iteri
    (fun i o ->
      if i > 0 then output_char oc ',';
      Printf.fprintf oc "{\"experiment\":%s,\"title\":%s,\"seconds\":%.6f,\"words_moved\":{"
        (Jsonlite.quote o.id) (Jsonlite.quote o.title) o.seconds;
      List.iteri
        (fun j (label, w) ->
          if j > 0 then output_char oc ',';
          Printf.fprintf oc "%s:%.17g" (Jsonlite.quote label) w)
        o.words;
      output_string oc "}}")
    (List.rev !outcomes);
  output_string oc "]}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* E1 — Section 6.1: matmul lower bound equals                         *)
(*      max(L1 L2 L3 / sqrt M, L1 L2, L2 L3, L1 L3)                    *)
(* ------------------------------------------------------------------ *)

let e1 () =
  rowf "%8s %8s %8s %8s | %14s %14s %8s %14s\n" "L1" "L2" "L3" "M" "ours" "paper formula"
    "ratio" "classic-only";
  let cases =
    [
      (1024, 1024, 1024, 1024);
      (1024, 1024, 256, 1024);
      (1024, 1024, 32, 1024);
      (1024, 1024, 8, 1024);
      (1024, 1024, 1, 1024);
      (4, 4096, 4096, 1024);
      (4096, 2, 4096, 1024);
      (64, 64, 64, 16384);
      (2048, 16, 16, 4096);
      (512, 512, 512, 64);
    ]
  in
  List.iter
    (fun (l1, l2, l3, m) ->
      let spec = Kernels.matmul ~l1 ~l2 ~l3 in
      let b = Pipeline.lower_bound spec ~m in
      let formula =
        Float.max
          (fint l1 *. fint l2 *. fint l3 /. sqrt (fint m))
          (Float.max (fint l1 *. fint l2) (Float.max (fint l2 *. fint l3) (fint l1 *. fint l3)))
      in
      rowf "%8d %8d %8d %8d | %14.4g %14.4g %8.3f %14.4g\n" l1 l2 l3 m b.Lower_bound.words_paper
        formula
        (b.Lower_bound.words_paper /. formula)
        b.Lower_bound.words_classic)
    cases;
  print_endline
    "expected shape: ratio ~ 1.0, except when all of L1 L2 L3 fit one cache-load (the 64^3 /";
  print_endline
    "M=16384 row), where the model's M-per-tile charge applies (the Section 6.3 caveat);";
  print_endline "'classic-only' collapses when any bound is small."

(* ------------------------------------------------------------------ *)
(* E2 — Section 6.1: the alpha family of optimal tilings               *)
(* ------------------------------------------------------------------ *)

let e2 () =
  let m = 4096 and l3 = 8 in
  let spec = Kernels.matmul ~l1:1024 ~l2:1024 ~l3 in
  rowf "%8s | %24s %10s %10s | %12s\n" "alpha" "tile" "volume" "M*L3" "LRU words";
  let small = Kernels.matmul ~l1:128 ~l2:128 ~l3 in
  List.iter
    (fun (alpha, tile) ->
      let run_tile = Array.map2 min tile small.Spec.bounds in
      let words =
        (Pipeline.simulate small ~m:(3 * m) (Pipeline.sim (Pipeline.Fixed run_tile)))
          .Report.words_moved
      in
      rowf "%8s | %24s %10d %10d | %12d\n" (Rat.to_string alpha)
        (Format.asprintf "%a" (Tiling.pp spec) tile)
        (Tiling.volume tile) (m * l3) words;
      note_int ("alpha=" ^ Rat.to_string alpha) words)
    (Alpha_family.sample ~steps:4 spec ~m);
  print_endline
    "expected shape: every alpha gives cardinality ~ M*L3 = 32768 and near-identical traffic;";
  print_endline
    "endpoints are the (M/L3, L3, L3) and (sqrt M, sqrt M, L3) tiles from the paper."

(* ------------------------------------------------------------------ *)
(* E3 — Section 6.2: tensor contractions reduce to the matmul LP       *)
(* ------------------------------------------------------------------ *)

let e3 () =
  rowf "%24s | %12s %12s %8s\n" "(j,k,d) betas" "contraction" "grouped-mm" "equal";
  let r = Rat.of_ints in
  let cases =
    [
      (1, 3, 4, [| r 1 1; r 1 4; r 1 1; r 1 1 |]);
      (1, 3, 4, [| r 1 1; r 1 1; r 1 8; r 1 8 |]);
      (2, 4, 5, [| r 1 2; r 1 2; r 1 4; r 1 1; r 1 1 |]);
      (1, 3, 5, [| r 1 1; r 1 1; r 1 1; r 1 1; r 1 1 |]);
      (2, 4, 6, [| r 1 8; r 1 8; r 1 2; r 1 2; r 1 1; r 1 1 |]);
    ]
  in
  List.iter
    (fun (j, k, d, beta) ->
      let bounds = Array.make d 4 in
      let spec = Kernels.tensor_contraction ~j ~k ~d ~bounds in
      let v = (Pipeline.solve_lp spec ~beta).Tiling.value in
      (* gamma grouping: gamma1 = x1..xj, gamma2 = x_{j+1}..x_{k-1},
         gamma3 = x_k..x_d; the grouped problem is matmul with box
         constraints Gamma_i. *)
      let sum lo hi =
        let acc = ref Rat.zero in
        for i = lo to hi do
          acc := Rat.add !acc beta.(i - 1)
        done;
        !acc
      in
      let g1 = sum 1 j and g2 = sum (j + 1) (k - 1) and g3 = sum k d in
      let one = Rat.one in
      let lp =
        Lp.make Lp.Maximize [| one; one; one |]
          [
            Lp.constr [| one; Rat.zero; one |] Lp.Le one;
            Lp.constr [| one; one; Rat.zero |] Lp.Le one;
            Lp.constr [| Rat.zero; one; one |] Lp.Le one;
            Lp.constr [| one; Rat.zero; Rat.zero |] Lp.Le g1;
            Lp.constr [| Rat.zero; one; Rat.zero |] Lp.Le g2;
            Lp.constr [| Rat.zero; Rat.zero; one |] Lp.Le g3;
          ]
      in
      let v' = (Simplex.solve_exn lp).Simplex.objective in
      rowf "%24s | %12s %12s %8b\n"
        (Printf.sprintf "(%d,%d,%d)" j k d)
        (Rat.to_string v) (Rat.to_string v') (Rat.equal v v'))
    cases;
  print_endline "expected shape: the two LP values agree exactly on every row."

(* ------------------------------------------------------------------ *)
(* E4 — Section 6.2 / Section 1: pointwise-convolution layers          *)
(* ------------------------------------------------------------------ *)

let std_sims = Pipeline.[ sim Optimal; sim Classic; sim Untiled ]

(* Every bench request is valid by construction: a typed error here is a
   bench bug, so it aborts the run. *)
let ok = function Ok r -> r | Error e -> Engine_error.raise_error e

(* Words moved by the k-th simulation of a report (request order). *)
let sim_words (r : Report.t) k = (List.nth r.Report.sims k).Report.words_moved

let e4 () =
  let m = 2048 in
  rowf "%-22s | %12s %12s %12s %12s %8s\n" "layer (b,c,k,w,h)" "lower bound" "ours(LRU)"
    "classic(LRU)" "untiled" "ours/LB";
  let layers =
    [
      (4, 8, 16, 28, 28);
      (4, 16, 32, 14, 14);
      (4, 32, 64, 7, 7);
      (4, 4, 128, 7, 7);
      (32, 64, 64, 1, 1);
      (8, 3, 32, 16, 16);
    ]
  in
  let specs =
    List.map (fun (b, c, k, w, h) -> Kernels.pointwise_conv ~b ~c ~k ~w ~h) layers
  in
  let reports =
    List.map ok
      (Pipeline.sweep_checked
         (List.map (fun spec -> Pipeline.request ~sims:std_sims spec ~m) specs))
  in
  List.iter2
    (fun (b, c, k, w, h) (r : Report.t) ->
      let label = Printf.sprintf "(%d,%d,%d,%d,%d)" b c k w h in
      let ours = sim_words r 0 and classic = sim_words r 1 and naive = sim_words r 2 in
      rowf "%-22s | %12.0f %12d %12d %12d %8.2f\n" label r.Report.bound.Lower_bound.words
        ours classic naive
        (fint ours /. r.Report.bound.Lower_bound.words);
      note_int ("conv" ^ label ^ " ours") ours;
      note_int ("conv" ^ label ^ " classic") classic)
    layers reports;
  print_endline
    "expected shape: ours stays within a small constant of the bound on every layer;";
  print_endline "classic degrades by up to an order of magnitude when c (or w,h) is small."

(* ------------------------------------------------------------------ *)
(* E5 — Section 6.3: n-body pairwise interactions                      *)
(* ------------------------------------------------------------------ *)

let e5 () =
  let m = 256 in
  rowf "%8s %8s | %12s %12s | %12s %12s %8s\n" "L1" "L2" "tile vol" "formula" "LB words"
    "formula" "ratio";
  List.iter
    (fun (l1, l2) ->
      let spec = Kernels.nbody ~l1 ~l2 in
      let beta = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
      let sol = Pipeline.solve_lp spec ~beta in
      let cap = Float.exp (Rat.to_float sol.Tiling.value *. log (fint m)) in
      let tile_formula = min (fint m *. fint m) (min (fint l1 *. fint m) (min (fint l2 *. fint m) (fint l1 *. fint l2))) in
      let b = Pipeline.lower_bound spec ~m in
      (* Section 6.3's min(L1L2/M, L2, L1, M) terms correspond to the four
         candidate tile sizes; communication in words is
         L1 L2 M / (max feasible tile) with the max tile being the min of
         the four candidates. *)
      let comm_formula = fint l1 *. fint l2 *. fint m /. tile_formula in
      rowf "%8d %8d | %12.4g %12.4g | %12.4g %12.4g %8.3f\n" l1 l2 cap tile_formula
        b.Lower_bound.words_paper comm_formula
        (b.Lower_bound.words_paper /. comm_formula))
    [ (4096, 4096); (32, 4096); (4096, 32); (256, 256); (32, 32); (4096, 2); (2, 4096) ];
  print_endline
    "expected shape: both ratios ~ 1.0; the last regimes show the Section-6.3 caveat where";
  print_endline "the whole problem fits in cache and the model still charges M per tile."

(* ------------------------------------------------------------------ *)
(* E6 — Sections 4-5: tightness of bound vs constructed tiling         *)
(* ------------------------------------------------------------------ *)

let e6 () =
  rowf "%-28s %6s | %12s %12s %12s %12s | %8s\n" "kernel" "M" "LB words" "analytic"
    "LRU" "OPT" "LRU/LB";
  let cases =
    List.concat
      [
        List.map (fun m -> ("matmul 64^3", Kernels.matmul ~l1:64 ~l2:64 ~l3:64, m))
          [ 256; 1024; 4096 ];
        List.map (fun m -> ("matmul 128x128x8", Kernels.matmul ~l1:128 ~l2:128 ~l3:8, m))
          [ 256; 1024; 4096 ];
        List.map
          (fun m ->
            ("conv (4,8,16,14,14)", Kernels.pointwise_conv ~b:4 ~c:8 ~k:16 ~w:14 ~h:14, m))
          [ 512; 2048 ];
      ]
  in
  let sims = Pipeline.[ sim Optimal; sim ~policy:Policy.Opt Optimal ] in
  let reports =
    List.map ok
      (Pipeline.sweep_checked
         (List.map (fun (_, spec, m) -> Pipeline.request ~sims ~shared:true spec ~m) cases))
  in
  List.iter2
    (fun (name, spec, m) (r : Report.t) ->
      let shared = Option.get r.Report.tile_shared in
      let analytic = Tiling.analytic_traffic spec shared in
      let a_total = analytic.Tiling.reads +. analytic.Tiling.writes in
      let lru = sim_words r 0 and opt = sim_words r 1 in
      rowf "%-28s %6d | %12.0f %12.0f %12d %12d | %8.2f\n" name m
        r.Report.bound.Lower_bound.words a_total lru opt
        (fint lru /. r.Report.bound.Lower_bound.words);
      note_int (Printf.sprintf "%s M=%d LRU" name m) lru)
    cases reports;
  print_endline
    "expected shape: LRU/LB stays a small constant (< ~5) across kernels and cache sizes:";
  print_endline
    "the bound is tight up to the model's constant factors (Theorem 3; the paper charges";
  print_endline
    "each array a separate M-word budget, a real cache shares one). 'analytic' is the";
  print_endline
    "pessimistic per-tile-reload model; measured LRU beats it because the tile search";
  print_endline "exploits block retention across adjacent tiles."

(* ------------------------------------------------------------------ *)
(* E7 — Section 1: who wins when bounds are small                      *)
(* ------------------------------------------------------------------ *)

let e7 () =
  let m = 1024 in
  rowf "%-24s | %12s %12s %12s %12s | %18s\n" "kernel" "LB" "untiled" "classic" "ours"
    "winner";
  let cases =
    [
      ("matmul 128^3", Kernels.matmul ~l1:128 ~l2:128 ~l3:128);
      ("matmul 256x256x4", Kernels.matmul ~l1:256 ~l2:256 ~l3:4);
      ("matvec 512x512", Kernels.matvec ~m:512 ~n:512);
      ("outer 512x512", Kernels.outer_product ~m:512 ~n:512);
      ("nbody 1024x64", Kernels.nbody ~l1:1024 ~l2:64);
      ("conv (4,4,64,14,14)", Kernels.pointwise_conv ~b:4 ~c:4 ~k:64 ~w:14 ~h:14);
    ]
  in
  let reports =
    List.map ok
      (Pipeline.sweep_checked
         (List.map (fun (_, spec) -> Pipeline.request ~sims:std_sims spec ~m) cases))
  in
  List.iter2
    (fun (name, _) (r : Report.t) ->
      let ours = sim_words r 0 and classic = sim_words r 1 and naive = sim_words r 2 in
      let winner =
        if ours <= classic && ours <= naive then "ours"
        else if classic <= naive then "classic"
        else "untiled"
      in
      rowf "%-24s | %12.0f %12d %12d %12d | %18s\n" name r.Report.bound.Lower_bound.words
        naive classic ours winner;
      note_int (name ^ " ours") ours)
    cases reports;
  print_endline
    "expected shape: ours wins on every row; the margin grows as loop bounds shrink";
  print_endline "below sqrt(M), where classic wastes its tile budget."

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 3: LP = dual = 2^d enumeration on random programs      *)
(* ------------------------------------------------------------------ *)

let e8 () =
  let rng = Random.State.make [| 0x5eed |] in
  let trials = 60 in
  let max_d = ref 0 in
  let agreements = ref 0 in
  for _ = 1 to trials do
    let d = 2 + Random.State.int rng 4 in
    let n = 2 + Random.State.int rng 3 in
    max_d := max !max_d d;
    let arrays =
      Array.init n (fun j ->
        let support =
          List.filter (fun i -> i mod n = j || Random.State.bool rng) (List.init d (fun i -> i))
        in
        Spec.array_ref
          ~mode:(if j = 0 then Spec.Update else Spec.Read)
          (Printf.sprintf "A%d" j) support)
    in
    let loops = Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
    let bounds = Array.init d (fun _ -> 1 + Random.State.int rng 64) in
    match Spec.create ~name:"rand" ~loops ~bounds ~arrays with
    | Error _ -> ()
    | Ok spec ->
      let beta =
        Array.init d (fun _ -> Rat.of_ints (Random.State.int rng 17) 8)
      in
      let v1 = (Pipeline.solve_lp spec ~beta).Tiling.value in
      let v2 = (Simplex.solve_exn (Hbl_lp.dual_tiling spec ~beta)).Simplex.objective in
      let v3 = (Lower_bound.exponent_by_enumeration spec ~beta).Lower_bound.k_hat in
      if Rat.equal v1 v2 && Rat.equal v1 v3 then incr agreements
      else
        rowf "DISAGREEMENT: %s  lp=%s dual=%s enum=%s\n"
          (Format.asprintf "%a" Spec.pp spec)
          (Rat.to_string v1) (Rat.to_string v2) (Rat.to_string v3)
  done;
  rowf "%d/%d random programs (d <= %d): LP(5.1) = dual (5.5/5.6) = min_Q Theorem-2 bound\n"
    !agreements trials !max_d;
  print_endline "expected shape: agreement on every trial (exact rational equality)."

(* ------------------------------------------------------------------ *)
(* E9 — Section 7: piecewise-linear closed forms                       *)
(* ------------------------------------------------------------------ *)

let e9 () =
  List.iter
    (fun (name, spec) ->
      let cf = Closed_form.compute spec in
      rowf "%-18s f(beta) = %s\n" name (Format.asprintf "%a" Closed_form.pp cf))
    [
      ("matmul", Kernels.matmul ~l1:4 ~l2:4 ~l3:4);
      ("matvec", Kernels.matvec ~m:4 ~n:4);
      ("nbody", Kernels.nbody ~l1:4 ~l2:4);
      ("outer_product", Kernels.outer_product ~m:4 ~n:4);
      ("contraction(1,3,4)", Kernels.tensor_contraction ~j:1 ~k:3 ~d:4 ~bounds:[| 4; 4; 4; 4 |]);
      ("pointwise_conv", Kernels.pointwise_conv ~b:4 ~c:4 ~k:4 ~w:4 ~h:4);
    ];
  (* spot-check the forms against the LP at random rational betas *)
  let rng = Random.State.make [| 0xf00d |] in
  let checks = ref 0 and ok = ref 0 in
  List.iter
    (fun spec ->
      let cf = Closed_form.compute spec in
      for _ = 1 to 25 do
        let beta =
          Array.init (Spec.num_loops spec) (fun _ -> Rat.of_ints (Random.State.int rng 33) 8)
        in
        incr checks;
        if Rat.equal (Closed_form.eval cf beta) (Pipeline.solve_lp spec ~beta).Tiling.value then
          incr ok
      done)
    [ Kernels.matmul ~l1:4 ~l2:4 ~l3:4; Kernels.nbody ~l1:4 ~l2:4;
      Kernels.pointwise_conv ~b:4 ~c:4 ~k:4 ~w:4 ~h:4 ];
  rowf "closed-form evaluations matching the LP: %d/%d\n" !ok !checks;
  print_endline
    "expected shape: matmul renders as min(3/2, 1+b, 1+b, 1+b, sum b) — the Section 6.1/7 form;";
  print_endline "every random evaluation matches LP (5.1) exactly."

(* ------------------------------------------------------------------ *)
(* E10 — Section 7: distributed-memory rectangular partitions          *)
(* ------------------------------------------------------------------ *)

let e10 () =
  rowf "%-20s %4s | %14s %14s %14s %8s\n" "kernel" "P" "best grid" "per-proc words"
    "lower bound" "ratio";
  List.iter
    (fun (name, spec, ps) ->
      List.iter
        (fun p ->
          match Comm_model.best_grid spec ~p with
          | None -> rowf "%-20s %4d | %14s\n" name p "(no grid)"
          | Some g ->
            let lb = Comm_model.lower_bound spec ~p in
            rowf "%-20s %4d | %14s %14s %14.0f %8.2f\n" name p
              (String.concat "x" (Array.to_list (Array.map string_of_int g.Comm_model.grid)))
              (Bigint.to_string g.Comm_model.words)
              lb
              (Bigint.to_float g.Comm_model.words /. lb))
        ps)
    [
      ("matmul 512^3", Kernels.matmul ~l1:512 ~l2:512 ~l3:512, [ 4; 8; 16; 64 ]);
      ("matmul 512x512x4", Kernels.matmul ~l1:512 ~l2:512 ~l3:4, [ 4; 16; 64 ]);
      ("nbody 4096^2", Kernels.nbody ~l1:4096 ~l2:4096, [ 4; 16; 64 ]);
    ];
  print_endline
    "expected shape: the best rectangular grid tracks the lower bound within the #arrays";
  print_endline
    "constant, and shifts processors away from small dimensions (cf. the 512x512x4 rows)."

(* ------------------------------------------------------------------ *)
(* E11 — multi-level hierarchies and nested tilings (model extension)  *)
(* ------------------------------------------------------------------ *)

let e11 () =
  rowf "%-22s %-28s | %12s %12s\n" "kernel" "schedule" "L1<->L2" "L2<->mem";
  let run_case name spec caps =
    let show label sched =
      let r = Executor.run_hierarchy spec ~schedule:sched ~capacities:caps in
      rowf "%-22s %-28s | %12d %12d\n" name label r.Executor.boundary_words.(0)
        r.Executor.boundary_words.(1)
    in
    show "untiled" Schedules.Untiled;
    show
      (Printf.sprintf "tile for L1 (%d)" caps.(0))
      (Schedules.Tiled (Pipeline.tile_shared spec ~m:caps.(0)));
    show
      (Printf.sprintf "tile for L2 (%d)" caps.(1))
      (Schedules.Tiled (Pipeline.tile_shared spec ~m:caps.(1)));
    let h = Pipeline.hierarchy spec ~capacities:caps in
    rowf "%-22s %-28s | %12d %12d\n" name "nested (both)"
      h.Pipeline.hresult.Executor.boundary_words.(0)
      h.Pipeline.hresult.Executor.boundary_words.(1);
    note_int (name ^ " nested L1<->L2") h.Pipeline.hresult.Executor.boundary_words.(0);
    rowf "%-22s %-28s | %12.0f %12.0f\n" name "per-level lower bound"
      (Pipeline.lower_bound spec ~m:caps.(0)).Lower_bound.words
      (Pipeline.lower_bound spec ~m:caps.(1)).Lower_bound.words
  in
  run_case "matmul 64^3" (Kernels.matmul ~l1:64 ~l2:64 ~l3:64) [| 256; 4096 |];
  run_case "conv (4,8,16,14,14)" (Kernels.pointwise_conv ~b:4 ~c:8 ~k:16 ~w:14 ~h:14)
    [| 256; 4096 |];
  print_endline
    "expected shape: each single-level tile wins at its own boundary and loses at the";
  print_endline
    "other; the nested tiling is close to each specialist's strong boundary and strictly";
  print_endline
    "better on its weak one, i.e. the model composes across levels. (When one tile is";
  print_endline
    "already optimal at both levels, as for the conv layer, nesting adds only a small";
  print_endline "block-clipping overhead.)"

(* ------------------------------------------------------------------ *)
(* E12 — ablation: integer-tile construction strategies                *)
(* ------------------------------------------------------------------ *)

let e12 () =
  let m = 2048 in
  rowf "%-24s | %14s %14s %14s %14s\n" "kernel" "classic" "per-array M/n" "per-array M"
    "shared search";
  List.iter
    (fun (name, spec) ->
      let n = Spec.num_arrays spec in
      let traffic t =
        let tr = Tiling.analytic_traffic_retained spec t in
        tr.Tiling.reads +. tr.Tiling.writes
      in
      rowf "%-24s | %14.4g %14.4g %14.4g %14.4g\n" name
        (traffic (Schedules.classic_tile spec ~m))
        (traffic (Pipeline.tile spec ~m:(m / n)))
        (traffic (Pipeline.tile spec ~m))
        (traffic (Pipeline.tile_shared spec ~m)))
    [
      ("matmul 256^3", Kernels.matmul ~l1:256 ~l2:256 ~l3:256);
      ("matmul 512x512x8", Kernels.matmul ~l1:512 ~l2:512 ~l3:8);
      ("conv (8,4,32,14,14)", Kernels.pointwise_conv ~b:8 ~c:4 ~k:32 ~w:14 ~h:14);
      ("nbody 4096x4096", Kernels.nbody ~l1:4096 ~l2:4096);
      ("contraction(1,3,4)", Kernels.tensor_contraction ~j:1 ~k:3 ~d:4 ~bounds:[| 64; 64; 16; 16 |]);
    ];
  print_endline
    "expected shape: traffic is the retention-aware analytic model (what LRU approximates";
  print_endline
    "when the working set leaves headroom). 'per-array M' ignores that the cache is shared";
  print_endline
    "(its tiles overflow a real cache; paper-model reference only); among executable";
  print_endline
    "strategies the shared-budget search matches or beats classic and the M/n scaling on";
  print_endline "nearly every row (within a few percent elsewhere)."

(* ------------------------------------------------------------------ *)
(* E13 — loop interchange alone cannot reach the bound                 *)
(* ------------------------------------------------------------------ *)

let e13 () =
  let m = 512 in
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let bound = Pipeline.lower_bound spec ~m in
  rowf "%-26s | %12s %8s\n" "schedule" "LRU words" "x LB";
  let show label choice =
    let w = (Pipeline.simulate spec ~m (Pipeline.sim choice)).Report.words_moved in
    rowf "%-26s | %12d %8.2f\n" label w (fint w /. bound.Lower_bound.words);
    note_int label w
  in
  let perms = [ [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] ] in
  List.iter
    (fun p ->
      show
        (Printf.sprintf "order %s"
           (String.concat "," (Array.to_list (Array.map (fun i -> spec.Spec.loops.(i)) p))))
        (Pipeline.Permuted p))
    perms;
  show "optimal tiling" Pipeline.Optimal;
  rowf "%-26s | %12.0f %8.2f\n" "lower bound" bound.Lower_bound.words 1.0;
  print_endline
    "expected shape: every loop order stays an order of magnitude above the bound (matmul";
  print_endline
    "64^3, M = 512); only blocking closes the gap — interchange is not a substitute."

(* ------------------------------------------------------------------ *)
(* E14 — kernels beyond the paper's worked examples                    *)
(* ------------------------------------------------------------------ *)

let e14 () =
  let m = 1024 in
  rowf "%-28s | %6s %14s %12s %12s %8s\n" "kernel" "s_HBL" "k_hat" "LB words" "ours(LRU)"
    "ours/LB";
  let cases =
    [
      ("mttkrp 64^3 x r=16", Kernels.mttkrp ~i:64 ~j:64 ~k:64 ~r:16);
      ("mttkrp 64^3 x r=2", Kernels.mttkrp ~i:64 ~j:64 ~k:64 ~r:2);
      ("batched mm 8x(48^3)", Kernels.batched_matmul ~batch:8 ~l1:48 ~l2:48 ~l3:48);
      ("batched mm 128x(16^3)", Kernels.batched_matmul ~batch:128 ~l1:16 ~l2:16 ~l3:16);
      ("three_body 128^3", Kernels.three_body ~l1:128 ~l2:128 ~l3:128);
      ("three_body 4x128x128", Kernels.three_body ~l1:4 ~l2:128 ~l3:128);
    ]
  in
  let reports =
    List.map ok
      (Pipeline.sweep_checked
         (List.map
            (fun (_, spec) -> Pipeline.request ~sims:[ Pipeline.sim Pipeline.Optimal ] spec ~m)
            cases))
  in
  List.iter2
    (fun (name, spec) (r : Report.t) ->
      let w = sim_words r 0 in
      rowf "%-28s | %6s %14s %12.0f %12d %8.2f\n" name
        (Rat.to_string (Hbl_lp.s_hbl spec))
        (Rat.to_string r.Report.bound.Lower_bound.exponent.Lower_bound.k_hat)
        r.Report.bound.Lower_bound.words w
        (fint w /. r.Report.bound.Lower_bound.words);
      note_int (name ^ " ours") w)
    cases reports;
  print_endline
    "expected shape: the machinery handles every shape uniformly (the paper's point about";
  print_endline
    "niche kernels); measured traffic stays within a small constant of the bound, including";
  print_endline "the tiny-rank / tiny-batch cases where classical analyses do not apply."

(* ------------------------------------------------------------------ *)
(* E15 — cache-line granularity (model refinement)                     *)
(* ------------------------------------------------------------------ *)

let e15 () =
  let m = 1024 in
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let bound = Pipeline.lower_bound spec ~m in
  rowf "%-24s | %12s %12s %12s\n" "schedule" "line=1" "line=4" "line=8";
  List.iter
    (fun (label, choice) ->
      let words lw =
        (Pipeline.simulate spec ~m (Pipeline.sim ~line_words:lw choice)).Report.words_moved
      in
      rowf "%-24s | %12d %12d %12d\n" label (words 1) (words 4) (words 8))
    [ ("untiled", Pipeline.Untiled); ("optimal tiling", Pipeline.Optimal) ];
  rowf "%-24s | %12.0f (word-granular model)\n" "lower bound" bound.Lower_bound.words;
  print_endline
    "expected shape: matmul walks rows contiguously in either schedule, so traffic is";
  print_endline
    "nearly line-size-invariant (the tiled version pays a small edge penalty: tile rows";
  print_endline
    "are not line-multiples); the tiling's advantage (4.4x at 1-word lines) persists at";
  print_endline "every line size, and the word-granular bound stays valid throughout."

(* ------------------------------------------------------------------ *)
(* E17 — distributed: memory-dependent per-processor traffic           *)
(* ------------------------------------------------------------------ *)

let e17 () =
  let spec = Kernels.matmul ~l1:128 ~l2:128 ~l3:128 in
  rowf "%4s | %12s %16s | per-processor simulated words at M_local =\n" "P" "best grid"
    "gather volume";
  rowf "%4s | %12s %16s | %10s %10s %10s\n" "" "" "(mem-independent)" "256" "1024" "8192";
  List.iter
    (fun p ->
      match Comm_model.best_grid spec ~p with
      | None -> ()
      | Some g ->
        let sim m =
          (Comm_model.simulate_processor spec ~grid:g.Comm_model.grid ~m_local:m)
            .Comm_model.words_per_proc
        in
        rowf "%4d | %12s %16s | %10d %10d %10d\n" p
          (String.concat "x" (Array.to_list (Array.map string_of_int g.Comm_model.grid)))
          (Bigint.to_string g.Comm_model.words)
          (sim 256) (sim 1024) (sim 8192))
    [ 1; 8; 64 ];
  print_endline
    "expected shape: with small local memories the simulated per-processor traffic exceeds";
  print_endline
    "the memory-independent gather volume (data is re-fetched), and it converges toward the";
  print_endline
    "gather volume as M_local grows — the classical memory-dependent/independent crossover;";
  print_endline "more processors shrink both (smaller blocks per processor)."

(* ------------------------------------------------------------------ *)
(* E18 — tiling plans: plan-served vs LP-served on repeat shapes       *)
(* ------------------------------------------------------------------ *)

let e18 () =
  (* A service-shaped workload: few distinct kernel shapes, many
     (bounds, M) points each — the regime the plan layer targets. The
     reference is the LP oracle itself: one lex-max solve of LP (5.1) per
     point, its bound priced by the certified LP value. The engine runs
     the same requests plan-first from cold caches. The gate (also
     enforced by compare.exe --strict against the baseline) is that
     lambda, k_hat and the whole bound record equal the oracle's at every
     point, and that the engine solves no tiling LP at all: a new shape's
     first request compiles its plan and is answered from it. *)
  let specs =
    [
      Kernels.matmul ~l1:64 ~l2:64 ~l3:64;
      Kernels.matmul ~l1:1024 ~l2:1024 ~l3:8;
      Kernels.matmul ~l1:4096 ~l2:2 ~l3:4096;
      Kernels.matvec ~m:512 ~n:512;
      Kernels.matvec ~m:4096 ~n:16;
      Kernels.nbody ~l1:1024 ~l2:64;
      Kernels.nbody ~l1:32 ~l2:4096;
    ]
  in
  let ms = [ 64; 256; 1024; 4096; 16384 ] in
  let points = List.concat_map (fun spec -> List.map (fun m -> (spec, m)) ms) specs in
  let distinct_shapes =
    List.length (List.sort_uniq compare (List.map Memo.key_of_shape specs))
  in
  let beta_of (spec, m) = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
  let oracle_solves =
    List.length
      (List.sort_uniq compare
         (List.map (fun p -> Memo.key_of_spec_beta (fst p) ~beta:(beta_of p)) points))
  in
  let oracle =
    List.map
      (fun ((spec, m) as p) ->
        let beta = beta_of p in
        let sol = Tiling.solve_lp_lexmax spec ~beta in
        ( sol,
          Lower_bound.communication spec ~m ~beta
            ~price:(fun beta -> Tiling.lp_value spec ~beta)
            ~lambda:sol.Tiling.lambda ~k_hat:sol.Tiling.value ))
      points
  in
  let c_lp_misses = Obs.counter "memo.lp.misses" in
  (* jobs:1 keeps the miss accounting exact, as with the oracle. *)
  Pipeline.reset_caches ();
  let misses0 = Obs.value c_lp_misses in
  let results =
    Pipeline.sweep_checked ~jobs:1
      (List.map (fun (spec, m) -> Pipeline.request ~shared:true spec ~m) points)
  in
  let on_misses = Obs.value c_lp_misses - misses0 in
  Pipeline.reset_caches ();
  let identical =
    List.for_all2
      (fun (sol, bound) -> function
        | Ok (r : Report.t) ->
          Rat.equal sol.Tiling.value r.Report.lp.Tiling.value
          && Array.for_all2 Rat.equal sol.Tiling.lambda r.Report.lp.Tiling.lambda
          && Lower_bound.equal bound r.Report.bound
        | Error _ -> false)
      oracle results
  in
  rowf "%d requests over %d kernels (%d distinct shapes), M in {%s}:\n" (List.length points)
    (List.length specs) distinct_shapes
    (String.concat ", " (List.map string_of_int ms));
  rowf "  %-12s | %14s %18s\n" "answered by" "LP solves" "answers identical";
  rowf "  %-12s | %14d %18s\n" "LP oracle" oracle_solves "(reference)";
  rowf "  %-12s | %14d %18s\n" "plan-first" on_misses (if identical then "yes" else "NO");
  note_int "plan_identical" (if identical then 1 else 0);
  note_int "lp_misses_plan_off" oracle_solves;
  note_int "lp_misses_plan_on" on_misses;
  note_int "distinct_shapes" distinct_shapes;
  print_endline
    "expected shape: the oracle solves one lex-max LP per (shape, bounds, M) point; the";
  print_endline
    "plan-first engine solves none — each shape's first request compiles its dual-vertex";
  print_endline
    "tables and every point is answered from them with the oracle's exact lambda, k_hat";
  print_endline "and bound, with zero simplex solves."

(* ------------------------------------------------------------------ *)
(* E19 — serve concurrency: class-aware serve loop vs class-blind FIFO  *)
(* ------------------------------------------------------------------ *)

let t_fifo_analytic = Obs.timer "bench.e19.fifo_wait.analytic"
let t_fifo_simulation = Obs.timer "bench.e19.fifo_wait.simulation"

let e19 () =
  (* The concurrent-serve regime: slow simulation requests land just
     ahead of a burst of cheap analytic ones — the adversarial order for
     a class-blind FIFO, where every analytic request queues behind all
     the simulation work. Both arms start from the same request lines.
     The class-aware arm is the serve loop itself ({!Serve.serve}), one
     in-memory connection per line, so one poller turn admits all of
     them and analytic lines are claimed before any simulation. The
     ablation baseline is {!Pool.map_list} over the decoded requests: it
     claims in input order, class-blind. The gate is the analytic-class
     p99 queue wait, enforced against the baseline by compare.exe
     --gate-ratio (the absolute milliseconds are machine-dependent and
     exempt from the byte-equality check — only deterministic fields
     and the ratio are gated). *)
  let line ~sims i (spec, m) =
    Printf.sprintf {|{"v":2,"op":"analyze","id":"e19-%d","kernel":%s,"m":%d%s}|} i
      (Jsonlite.quote (Option.get (Parser.to_dsl spec)))
      m
      (if sims then {|,"schedules":["optimal"]|} else "")
  in
  let sim_points =
    [
      (Kernels.matmul ~l1:128 ~l2:128 ~l3:128, 1024);
      (Kernels.matmul ~l1:128 ~l2:96 ~l3:96, 512);
      (Kernels.nbody ~l1:768 ~l2:768, 256);
      (Kernels.matmul ~l1:96 ~l2:128 ~l3:96, 2048);
      (Kernels.nbody ~l1:1024 ~l2:512, 1024);
      (Kernels.matmul ~l1:96 ~l2:96 ~l3:128, 4096);
    ]
  in
  let analytic_points =
    List.concat_map
      (fun spec -> List.map (fun m -> (spec, m)) [ 64; 256; 1024; 4096; 16384; 65536 ])
      [
        Kernels.matmul ~l1:64 ~l2:64 ~l3:64;
        Kernels.matmul ~l1:1024 ~l2:1024 ~l3:8;
        Kernels.matvec ~m:512 ~n:512;
        Kernels.matvec ~m:4096 ~n:16;
        Kernels.nbody ~l1:1024 ~l2:64;
        Kernels.matmul ~l1:4096 ~l2:2 ~l3:4096;
        Kernels.nbody ~l1:32 ~l2:4096;
      ]
  in
  let n_sim = List.length sim_points in
  let lines =
    List.mapi (fun i p -> line ~sims:(i < n_sim) i p) (sim_points @ analytic_points)
  in
  let reqs =
    List.map
      (fun l ->
        match Request.decode l with
        | Ok ({ Request.body = Request.Analyze { m; sims; shared; _ }; _ } as r) ->
          (r, sims = [], Pipeline.request ~sims ~shared r.Request.spec ~m)
        | _ -> failwith ("E19: bad request line " ^ l))
      lines
  in
  let jobs = 4 in
  (* The FIFO arm answers with the bytes serve would write for its
     reports, so the two arms compare line for line. *)
  let fifo_arm () =
    let submitted = Unix.gettimeofday () in
    Pool.map_list ~jobs
      (fun ((r : Request.t), analytic, preq) ->
        Obs.add_seconds
          (if analytic then t_fifo_analytic else t_fifo_simulation)
          (Unix.gettimeofday () -. submitted);
        let v = r.Request.v and id = r.Request.id and warnings = r.Request.warnings in
        match Pipeline.run_checked preq with
        | Ok rep ->
          Serve_protocol.ok_response ~warnings ~v ~id
            ~report_json:(Report.to_json ~timings:false rep) ()
        | Error e -> Serve_protocol.error_response ~v ~id e)
      reqs
  in
  let serve_arm () =
    let conn l =
      let pending = ref [ Serve.Line l ] and out = ref [] in
      let next ~block:_ =
        match !pending with
        | e :: rest ->
          pending := rest;
          e
        | [] -> Serve.Eof
      in
      ((next, fun r -> out := r :: !out), out)
    in
    let conns = List.map conn lines in
    Serve.serve { (Serve.default_config ()) with jobs } (List.map fst conns);
    List.concat_map (fun (_, out) -> List.rev !out) conns
  in
  let run_arm ~wait arm =
    Pipeline.reset_caches ();
    let s0 = Obs.snapshot () in
    let responses = arm () in
    let d = Obs.diff s0 (Obs.snapshot ()) in
    let p99 name =
      match List.assoc_opt name d.Obs.stimers with
      | Some t -> Obs.percentile t.Obs.tdist 99.0 /. 1e6
      | None -> 0.0
    in
    (responses, p99 (wait ^ ".analytic"), p99 (wait ^ ".simulation"))
  in
  (* One run of each arm reads a ratio that moves by about a quarter on
     unchanged code, so the arms run [reps] times, interleaved, and the
     median is the gated figure; min and max show the spread. Only the
     first pair is charged to E19's cost (see [repeat_run]). *)
  let reps = 5 in
  let pair () =
    let fifo = run_arm ~wait:"bench.e19.fifo_wait" fifo_arm in
    let split = run_arm ~wait:"serve.queue_wait" serve_arm in
    (fifo, split)
  in
  let first = pair () in
  let runs = first :: repeat_run (fun () -> List.init (reps - 1) (fun _ -> pair ())) in
  Pipeline.reset_caches ();
  let median xs = List.nth (List.sort compare xs) (List.length xs / 2) in
  let med f = median (List.map f runs) in
  let identical = List.for_all (fun ((f, _, _), (s, _, _)) -> f = s) runs in
  let ratios = List.map (fun ((_, f, _), (_, s, _)) -> f /. Float.max s 1e-3) runs in
  let ratio = median ratios in
  let lo = List.fold_left Float.min infinity ratios in
  let hi = List.fold_left Float.max neg_infinity ratios in
  let fifo_p99 = med (fun ((_, p, _), _) -> p) in
  let fifo_sim_p99 = med (fun ((_, _, p), _) -> p) in
  let split_p99 = med (fun (_, (_, p, _)) -> p) in
  let split_sim_p99 = med (fun (_, (_, _, p)) -> p) in
  rowf "%d requests (%d simulation-class first, then %d analytic-class), %d jobs,\n"
    (List.length reqs) n_sim (List.length analytic_points) jobs;
  rowf "medians of %d interleaved runs of each arm:\n" reps;
  rowf "  %-22s | %16s %16s %18s\n" "scheduler" "analytic p99" "simulation p99"
    "reports identical";
  rowf "  %-22s | %13.3f ms %13.3f ms %18s\n" "coarse FIFO (ablation)" fifo_p99 fifo_sim_p99
    "(reference)";
  rowf "  %-22s | %13.3f ms %13.3f ms %18s\n" "class-aware serve loop" split_p99 split_sim_p99
    (if identical then "yes" else "NO");
  rowf "  analytic p99 improvement: %.1fx median, %.1fx-%.1fx\n" ratio lo hi;
  note_int "requests" (List.length reqs);
  note_int "split_identical" (if identical then 1 else 0);
  (* _ms / _ratio suffixes: machine-dependent, exempt from compare.exe's
     byte-equality; the median ratio is gated separately via --gate-ratio. *)
  note "queue_p99_coarse_ms" fifo_p99;
  note "queue_p99_split_ms" split_p99;
  note "queue_p99_ratio" ratio;
  note "queue_p99_min_ratio" lo;
  note "queue_p99_max_ratio" hi;
  print_endline
    "expected shape: under the coarse FIFO every analytic request waits behind the slow";
  print_endline
    "simulation requests submitted ahead of it, so the analytic-class p99 queue wait is the";
  print_endline
    "length of the simulation backlog; the serve loop claims the whole analytic burst";
  print_endline
    "before any simulation, collapsing that p99 by >=10x with byte-identical response";
  print_endline "lines."

(* ------------------------------------------------------------------ *)
(* E20 — partition solver: Pool-simulated schedule = model, exactly;   *)
(*       memory-independent points vs the Al Daas et al. closed forms  *)
(* ------------------------------------------------------------------ *)

let e20 () =
  (* The end-to-end acceptance gate of `tilings partition`: for every
     (kernel, P, M_local) point the chosen grid's P-processor schedule
     is replayed on the Pool (one domain per distinct block shape) and
     the simulated per-processor maximum must equal the model's gather
     volume EXACTLY — bit-for-bit Bigint equality, noted as a ratio so
     compare.exe can gate on 1.0. Memory-independent points are also
     checked against the continuous per-processor lower bounds of
     Al Daas-Ballard-Grigori-Kumar-Rouse (arXiv:2205.13407); discrete
     ceil-divided grids can only sit on or above the continuous min. *)
  let aldaas ~l1 ~l2 ~l3 ~p =
    (* closed forms want L1 >= L2 >= L3 *)
    let s = List.sort (fun a b -> compare b a) [ l1; l2; l3 ] in
    let l1, l2, l3 =
      match s with [ a; b; c ] -> (fint a, fint b, fint c) | _ -> assert false
    in
    let p = fint p in
    if p >= l1 *. l2 /. (l3 *. l3) then 3.0 *. Float.pow (l1 *. l2 *. l3 /. p) (2.0 /. 3.0)
    else if p >= l1 /. l2 then (l1 *. l2 /. p) +. (2.0 *. l3 *. sqrt (l1 *. l2 /. p))
    else (l1 *. (l2 +. l3) /. p) +. (l2 *. l3)
  in
  let ps = [ 4; 16; 64; 256; 1024; 4096 ] in
  let kernels =
    [ ("mm-ragged", 120, 128, 96); ("mm-flat", 512, 512, 16) ]
  in
  let m_small = 512 and m_big = 1 lsl 22 in
  let worst_ratio = ref 1.0 in
  let all_match = ref true in
  let aldaas_min = ref infinity in
  let crossover = ref None in
  let points = ref 0 in
  rowf "%-10s %5s %6s | %12s %9s | %16s %8s %8s\n" "kernel" "P" "M_loc" "grid" "regime"
    "words/proc" "sim=mod" "vs AlD";
  List.iter
    (fun (name, l1, l2, l3) ->
      let spec = Kernels.matmul ~l1 ~l2 ~l3 in
      List.iter
        (fun p ->
          List.iter
            (fun m_local ->
              match Pipeline.partition_checked spec ~p ~m_local ~net:Partition_solve.Words with
              | Error e -> Printf.printf "  %s P=%d: %s\n" name p (Engine_error.code e)
              | Ok sol ->
                incr points;
                let v =
                  match Pipeline.partition_validate spec sol with
                  | Ok v -> v
                  | Error e ->
                    Printf.ksprintf failwith "E20 %s P=%d validate: %s" name p
                      (Engine_error.code e)
                in
                let ratio =
                  Bigint.to_float v.Pipeline.pv_max_words
                  /. Bigint.to_float sol.Partition_solve.gather_words
                in
                if ratio > !worst_ratio then worst_ratio := ratio;
                if not v.Pipeline.pv_matches then all_match := false;
                let independent =
                  sol.Partition_solve.regime = Partition_solve.Memory_independent
                in
                let ald = aldaas ~l1 ~l2 ~l3 ~p in
                let vs_ald =
                  if independent then begin
                    let r = Bigint.to_float sol.Partition_solve.words /. ald in
                    if r < !aldaas_min then aldaas_min := r;
                    Printf.sprintf "%8.3f" r
                  end
                  else "       -"
                in
                if name = "mm-ragged" && m_local = m_small && independent
                   && !crossover = None
                then crossover := Some p;
                rowf "%-10s %5d %6d | %12s %9s | %16s %8s %s\n" name p m_local
                  (String.concat "x"
                     (Array.to_list (Array.map string_of_int sol.Partition_solve.grid)))
                  (if independent then "indep" else "dep")
                  (Bigint.to_string sol.Partition_solve.words)
                  (if v.Pipeline.pv_matches then "yes" else "NO")
                  vs_ald)
            [ m_small; m_big ])
        ps)
    kernels;
  note "model_vs_simulated_ratio" !worst_ratio;
  note_int "all_points_match" (if !all_match then 1 else 0);
  note "aldaas_min_ratio" !aldaas_min;
  note_int "points" !points;
  (match !crossover with
  | Some p -> note_int "crossover_p" p
  | None -> ());
  Printf.printf
    "memory regimes: at M_local = %d the ragged kernel is memory-dependent until P = %s\n"
    m_small
    (match !crossover with Some p -> string_of_int p | None -> "beyond 4096");
  print_endline
    "expected shape: sim=mod is 'yes' on every row (the analytic gather model and the";
  print_endline
    "literal address-set replay agree exactly; compare.exe gates the ratio at 1.0), and";
  print_endline
    "memory-independent rows sit on or just above the Al Daas continuous bound (ratio >=";
  print_endline
    "~1.0); small local memories keep the solver in the memory-dependent regime until the";
  print_endline "per-processor block shrinks under M — the per-regime crossover in P."

(* ------------------------------------------------------------------ *)
(* E16 — ablation: exact rational vs floating-point simplex            *)
(* ------------------------------------------------------------------ *)

let e16 () =
  let rng = Random.State.make [| 0xacc |] in
  let trials = 200 in
  let max_dev = ref 0.0 in
  let exact_rationals = ref 0 in
  let tie_cases = ref 0 in
  for _ = 1 to trials do
    let d = 2 + Random.State.int rng 3 in
    let n = 2 + Random.State.int rng 2 in
    let arrays =
      Array.init n (fun j ->
        Spec.array_ref
          ~mode:(if j = 0 then Spec.Update else Spec.Read)
          (Printf.sprintf "A%d" j)
          (List.filter (fun i -> i mod n = j || Random.State.bool rng) (List.init d (fun i -> i))))
    in
    let loops = Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
    match
      Spec.create ~name:"r" ~loops ~bounds:(Array.make d 4) ~arrays
    with
    | Error _ -> ()
    | Ok spec ->
      (* betas on a non-dyadic grid (thirds and sevenths): the exact
         rationals have no finite binary representation, so the float
         solver works with perturbed data throughout *)
      let beta =
        Array.init d (fun _ ->
          Rat.of_ints (Random.State.int rng 9) (if Random.State.bool rng then 3 else 7))
      in
      let lp = Hbl_lp.tiling spec ~beta in
      let exact = (Simplex.solve_exn lp).Simplex.objective in
      if Bigint.to_int (Rat.den exact) > 1 then incr exact_rationals;
      (match Simplex_float.solve lp with
      | Simplex_float.Optimal f ->
        let dev = Float.abs (f.Simplex_float.objective -. Rat.to_float exact) in
        if dev > !max_dev then max_dev := dev;
        (* a downstream exact comparison the float solver cannot make *)
        if Rat.equal exact (Rat.of_ints 3 2) then incr tie_cases
      | _ -> ())
  done;
  rowf "%d random degenerate tiling LPs (betas on thirds/sevenths):\n" trials;
  rowf "  max |float - exact| objective deviation: %.3g\n" !max_dev;
  rowf "  optima that are non-integer rationals (need exact arithmetic to state): %d\n"
    !exact_rationals;
  rowf "  optima exactly equal to 3/2 (Theorem-2 case boundary): %d\n" !tie_cases;
  print_endline
    "expected shape: float deviations are tiny but nonzero, and a large fraction of optima";
  print_endline
    "are non-integer rationals sitting exactly on Theorem-2 case boundaries — the equality";
  print_endline
    "tests that Theorem 3 requires (E8) are only possible with the exact solver.";
  print_endline
    "(The microbenchmarks below price this choice: on tiling-lp-matmul an exact solve is";
  print_endline "~5-8x slower than the float one, both microseconds.)"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let microbenches () =
  let open Bechamel in
  let open Toolkit in
  Printf.printf "\n==== MICRO: solver microbenchmarks (Bechamel, monotonic clock) ====\n";
  let mm = Kernels.matmul ~l1:1024 ~l2:1024 ~l3:8 in
  let conv = Kernels.pointwise_conv ~b:8 ~c:4 ~k:32 ~w:14 ~h:14 in
  let beta_mm = Lower_bound.beta_of_bounds ~m:4096 mm.Spec.bounds in
  let beta_conv = Lower_bound.beta_of_bounds ~m:4096 conv.Spec.bounds in
  let small_mm = Kernels.matmul ~l1:32 ~l2:32 ~l3:32 in
  let tile32 = Tiling.optimal_shared small_mm ~m:512 in
  let tests =
    Test.make_grouped ~name:"tilings"
      [
        Test.make ~name:"hbl-lp-matmul" (Staged.stage (fun () -> Hbl_lp.s_hbl mm));
        Test.make ~name:"tiling-lp-matmul"
          (Staged.stage (fun () -> Tiling.solve_lp mm ~beta:beta_mm));
        Test.make ~name:"tiling-lp-matmul-memoized"
          (Staged.stage (fun () -> Pipeline.solve_lp mm ~beta:beta_mm));
        Test.make ~name:"tiling-lp-matmul-float"
          (Staged.stage (fun () -> Simplex_float.solve (Hbl_lp.tiling mm ~beta:beta_mm)));
        Test.make ~name:"tiling-lp-conv"
          (Staged.stage (fun () -> Tiling.solve_lp conv ~beta:beta_conv));
        Test.make ~name:"lower-bound-enum-conv(2^5 Q)"
          (Staged.stage (fun () -> Lower_bound.exponent_by_enumeration conv ~beta:beta_conv));
        Test.make ~name:"lower-bound-dual-conv"
          (Staged.stage (fun () -> Lower_bound.exponent_by_lp conv ~beta:beta_conv));
        Test.make ~name:"closed-form-matmul" (Staged.stage (fun () -> Closed_form.compute mm));
        Test.make ~name:"integer-tile-shared-conv"
          (Staged.stage (fun () -> Tiling.optimal_shared conv ~m:4096));
        Test.make ~name:"simulate-matmul-32^3-lru"
          (Staged.stage (fun () ->
             Executor.run small_mm ~schedule:(Schedules.Tiled tile32) ~capacity:512));
      ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let est =
          match Analyze.OLS.estimates ols with Some (t :: _) -> t | _ -> Float.nan
        in
        (name, est) :: acc)
      results []
  in
  rowf "%-42s %16s\n" "benchmark" "time/run";
  List.iter
    (fun (name, ns) ->
      let pretty =
        if ns > 1e9 then Printf.sprintf "%.3f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.3f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.3f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      rowf "%-42s %16s\n" name pretty)
    (List.sort compare rows)

let tables ~s0 () =
  List.iter
    (fun (id, title, body) -> experiment id title body)
    [
      ("E1", "matmul bound = max(L1L2L3/sqrt(M), L1L2, L2L3, L1L3)  [Sec 6.1]", e1);
      ("E2", "alpha-parameterized family of optimal matmul tiles  [Sec 6.1]", e2);
      ("E3", "tensor contraction LP = gamma-grouped matmul LP  [Sec 6.2]", e3);
      ("E4", "pointwise convolutions with small channel counts  [Sec 1, 6.2]", e4);
      ( "E5",
        "n-body: tile min(M^2, L1 M, L2 M, L1 L2), comm min(L1L2/M, L2, L1, M)  [Sec 6.3]",
        e5 );
      ("E6", "tightness: constructed tiling vs lower bound  [Sec 4-5]", e6);
      ("E7", "who wins: untiled vs classic vs arbitrary-bounds tiling  [Sec 1]", e7);
      ("E8", "Theorem 3 on random projective programs  [Sec 4-5]", e8);
      ("E9", "piecewise-linear closed form of the tile exponent  [Sec 7]", e9);
      ("E10", "rectangular partitions over P processors  [Sec 7]", e10);
      ("E11", "nested tilings on a two-level hierarchy  [Sec 1/7 extension]", e11);
      ("E12", "ablation: tile construction strategies (retention-model traffic)  [DESIGN.md]", e12);
      ("E13", "loop interchange vs tiling  [Sec 1 motivation]", e13);
      ("E14", "generality: MTTKRP, batched matmul, 3-body (no hand analysis needed)", e14);
      ("E15", "cache lines: the word-granular model under 1/4/8-word lines", e15);
      ("E16", "ablation: exact vs float simplex on the tiling LPs  [DESIGN.md]", e16);
      ("E17", "distributed memory-dependent regime (Irony-Toledo-Tiskin shape)  [Sec 7]", e17);
      ("E18", "tiling plans: plan-served vs LP-served, byte-identity and miss collapse", e18);
      ("E19", "serve concurrency: class-aware serve loop vs class-blind FIFO queue wait", e19);
      ("E20", "partition: Pool-simulated schedule = model exactly; Al Daas bounds  [Sec 7]", e20);
    ];
  write_json ~s0 "BENCH_engine.json"

(* Usage: bench/main.exe [tables|micro] [--metrics] [--trace FILE]
                         [--telemetry FILE] *)
let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let metrics = List.mem "--metrics" args in
  let rec keyed flag = function
    | f :: file :: _ when f = flag -> Some file
    | _ :: rest -> keyed flag rest
    | [] -> None
  in
  let trace = keyed "--trace" args in
  let telemetry = keyed "--telemetry" args in
  let rec strip = function
    | [] -> []
    | "--metrics" :: rest -> strip rest
    | "--trace" :: _ :: rest -> strip rest
    | "--telemetry" :: _ :: rest -> strip rest
    | a :: rest -> a :: strip rest
  in
  let what = match strip args with w :: _ -> w | [] -> "all" in
  if trace <> None then begin
    Obs.Trace.enable ();
    Obs.Trace.set_lane_name "main"
  end;
  let tel =
    Option.map
      (fun path ->
        match Telemetry.start ~interval_s:1.0 path with
        | Ok t -> t
        | Error msg ->
          Printf.eprintf "bench: --telemetry %s: %s\n%!" path msg;
          exit 2)
      telemetry
  in
  let s0 = Obs.snapshot () in
  if what = "tables" || what = "all" then tables ~s0 ();
  if what = "micro" || what = "all" then microbenches ();
  Option.iter Telemetry.stop tel;
  Option.iter
    (fun file ->
      Obs.Trace.disable ();
      Obs.Trace.write_file file;
      Printf.printf "wrote %s (%s spans, %s dropped)\n" file
        (Obs.group_int (Obs.Trace.span_count ()))
        (Obs.group_int (Obs.Trace.dropped ())))
    trace;
  if metrics then Format.printf "@.%a@." Obs.pp (Obs.diff s0 (Obs.snapshot ()))

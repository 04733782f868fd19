(* Tests for the core contribution: HBL LPs, the arbitrary-bounds lower
   bound (Theorem 2), the matching tiling (Theorem 3 / Section 5), the
   alpha family (Section 6.1), and the piecewise-linear closed form
   (Section 7). *)

let rat = Alcotest.testable Rat.pp Rat.equal
let rr = Rat.of_ints
let check_r = Alcotest.check rat

(* ------------------------------------------------------------------ *)
(* Shared generators                                                  *)
(* ------------------------------------------------------------------ *)

(* Random valid projective loop nest: every loop covered by some array. *)
let gen_spec =
  QCheck.Gen.(
    int_range 2 5 >>= fun d ->
    int_range 2 4 >>= fun n ->
    let gen_support = list_size (int_range 1 d) (int_range 0 (d - 1)) in
    list_size (return n) gen_support >>= fun supports ->
    let supports = Array.of_list supports in
    (* Guarantee coverage: assign loop i to array (i mod n) as well. *)
    let supports = Array.mapi (fun j s -> List.init d (fun i -> i) |> List.filter (fun i -> i mod n = j) |> ( @ ) s) supports in
    array_size (return d) (int_range 1 64) >>= fun bounds ->
    let arrays =
      Array.mapi
        (fun j s ->
          Spec.array_ref
            ~mode:(if j = 0 then Spec.Update else Spec.Read)
            (Printf.sprintf "A%d" j) s)
        supports
    in
    let loops = Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
    match Spec.create ~name:"random" ~loops ~bounds ~arrays with
    | Ok s -> return s
    | Error e -> failwith (Spec.string_of_error e))

let print_spec s = Format.asprintf "%a" Spec.pp s
let arb_spec = QCheck.make ~print:print_spec gen_spec

let gen_beta d = QCheck.Gen.(array_size (return d) (map2 Rat.of_ints (int_range 0 16) (return 8)))

let arb_spec_beta =
  QCheck.make
    ~print:(fun (s, beta) ->
      Printf.sprintf "%s\nbeta=[%s]" (print_spec s)
        (String.concat ";" (List.map Rat.to_string (Array.to_list beta))))
    QCheck.Gen.(gen_spec >>= fun s -> gen_beta (Spec.num_loops s) >>= fun b -> return (s, b))

(* ------------------------------------------------------------------ *)
(* HBL LP (3.2), Section 3                                            *)
(* ------------------------------------------------------------------ *)

let test_s_hbl_values () =
  check_r "matmul" (rr 3 2) (Hbl_lp.s_hbl (Kernels.matmul ~l1:8 ~l2:8 ~l3:8));
  check_r "fully connected" (rr 3 2) (Hbl_lp.s_hbl (Kernels.fully_connected ~batch:4 ~cin:4 ~cout:4));
  check_r "pointwise conv" (rr 3 2) (Hbl_lp.s_hbl (Kernels.pointwise_conv ~b:2 ~c:2 ~k:2 ~w:2 ~h:2));
  check_r "contraction" (rr 3 2)
    (Hbl_lp.s_hbl (Kernels.tensor_contraction ~j:1 ~k:3 ~d:4 ~bounds:[| 4; 4; 4; 4 |]));
  check_r "nbody" (Rat.of_int 2) (Hbl_lp.s_hbl (Kernels.nbody ~l1:8 ~l2:8));
  check_r "outer product" (Rat.of_int 1) (Hbl_lp.s_hbl (Kernels.outer_product ~m:8 ~n:8))

let test_hbl_lp_matmul_solution () =
  let lp = Hbl_lp.hbl (Kernels.matmul ~l1:8 ~l2:8 ~l3:8) in
  Alcotest.(check int) "3 constraints" 3 (Lp.num_constraints lp);
  Alcotest.(check int) "3 vars" 3 (Lp.num_vars lp);
  let s = Simplex.solve_exn lp in
  Array.iter (fun si -> check_r "s_i = 1/2" Rat.half si) s.Simplex.primal

let test_reduced_hbl () =
  let mm = Kernels.matmul ~l1:8 ~l2:8 ~l3:8 in
  let lp = Hbl_lp.reduced_hbl mm ~removed:[ 2 ] in
  Alcotest.(check int) "2 constraints" 2 (Lp.num_constraints lp);
  (* removing x3's row lets s = (0,1,0) i.e. only A be charged *)
  check_r "optimum 1" Rat.one (Simplex.solve_exn lp).Simplex.objective;
  Alcotest.check_raises "bad index" (Invalid_argument "Hbl_lp.reduced_hbl: index out of range")
    (fun () -> ignore (Hbl_lp.reduced_hbl mm ~removed:[ 7 ]))

(* ------------------------------------------------------------------ *)
(* Lower bound (Theorem 2), Section 4                                 *)
(* ------------------------------------------------------------------ *)

let mm = Kernels.matmul ~l1:64 ~l2:64 ~l3:64

let test_matmul_exponent_cases () =
  (* Section 6.1: k = min(3/2, 1 + beta3) for beta1 = beta2 = 1 (large). *)
  let cases =
    [ (Rat.one, rr 3 2); (rr 1 2, rr 3 2); (rr 1 4, rr 5 4); (Rat.zero, Rat.one); (rr 3 8, rr 11 8) ]
  in
  List.iter
    (fun (b3, expect) ->
      let beta = [| Rat.one; Rat.one; b3 |] in
      check_r
        (Printf.sprintf "k at beta3=%s" (Rat.to_string b3))
        expect
        (Lower_bound.exponent_by_lp mm ~beta).Lower_bound.k_hat)
    cases

let test_matmul_symmetric_small () =
  (* All three bounds small: k = beta1 + beta2 + beta3 when that is < the
     other pieces. *)
  let beta = [| rr 1 4; rr 1 4; rr 1 4 |] in
  check_r "tiny bounds" (rr 3 4) (Lower_bound.exponent_by_lp mm ~beta).Lower_bound.k_hat

let test_witness_q_matvec () =
  let e = Lower_bound.exponent_by_lp mm ~beta:[| Rat.one; Rat.one; Rat.zero |] in
  Alcotest.(check (list int)) "Q = {x3}" [ 2 ] e.Lower_bound.witness_q

let test_nbody_exponent () =
  (* Section 6.3: max tile size = min(M^2, L1 M, L2 M, L1 L2), i.e.
     k = min(2, 1 + b1, 1 + b2, b1 + b2). *)
  let nb = Kernels.nbody ~l1:8 ~l2:8 in
  let check b1 b2 expect =
    check_r
      (Printf.sprintf "k(%s,%s)" (Rat.to_string b1) (Rat.to_string b2))
      expect
      (Lower_bound.exponent_by_lp nb ~beta:[| b1; b2 |]).Lower_bound.k_hat
  in
  check (Rat.of_int 2) (Rat.of_int 2) (Rat.of_int 2);
  check Rat.half (Rat.of_int 2) (rr 3 2);
  check (Rat.of_int 2) (rr 1 4) (rr 5 4);
  check Rat.half Rat.half Rat.one

let test_contraction_reduces_to_matmul () =
  (* Section 6.2: the gamma-grouped LP equals matmul's: optimum is
     min(3/2, 1 + min(sum of each group's betas)). *)
  let spec = Kernels.tensor_contraction ~j:1 ~k:3 ~d:4 ~bounds:[| 4; 4; 4; 4 |] in
  (* groups: gamma1 = {x1}, gamma2 = {x2}, gamma3 = {x3, x4} *)
  let beta = [| Rat.one; rr 1 4; Rat.one; Rat.one |] in
  check_r "small middle group" (rr 5 4)
    (Lower_bound.exponent_by_lp spec ~beta).Lower_bound.k_hat;
  let beta2 = [| Rat.one; Rat.one; rr 1 8; rr 1 8 |] in
  check_r "small third group" (rr 5 4)
    (Lower_bound.exponent_by_lp spec ~beta:beta2).Lower_bound.k_hat;
  let beta3 = [| Rat.one; Rat.one; Rat.one; Rat.one |] in
  check_r "large" (rr 3 2) (Lower_bound.exponent_by_lp spec ~beta:beta3).Lower_bound.k_hat

let test_k_of_q_empty_is_s_hbl () =
  let beta = [| Rat.one; Rat.one; Rat.one |] in
  check_r "Q empty" (Hbl_lp.s_hbl mm) (Lower_bound.k_of_q mm ~beta ~q:[])

let test_k_of_q_literal_vs_lp () =
  let beta = [| Rat.one; Rat.one; rr 1 4 |] in
  let k_lp = Lower_bound.k_of_q mm ~beta ~q:[ 2 ] in
  let k_lit = Lower_bound.k_of_q_literal mm ~beta ~q:[ 2 ] in
  check_r "matmul Q={x3} LP" (rr 5 4) k_lp;
  Alcotest.(check bool) "literal >= LP" true (Rat.compare k_lit k_lp >= 0)

let test_beta_of_bounds () =
  let beta = Lower_bound.beta_of_bounds ~m:1024 [| 1; 1024; 32 |] in
  check_r "L=1 -> 0" Rat.zero beta.(0);
  check_r "L=M -> 1" Rat.one beta.(1);
  check_r "L=sqrt M -> 1/2" Rat.half beta.(2);
  Alcotest.check_raises "m too small"
    (Invalid_argument "Lower_bound.beta_of_bounds: cache size must be >= 2") (fun () ->
    ignore (Lower_bound.beta_of_bounds ~m:1 [| 4 |]))

let test_beta_pow () =
  check_r "8 at M=2^12" (rr 3 12) (Lower_bound.beta_pow ~base:2 ~m_exp:12 8);
  check_r "1" Rat.zero (Lower_bound.beta_pow ~base:2 ~m_exp:10 1);
  Alcotest.check_raises "not a power"
    (Invalid_argument "Lower_bound.beta_pow: 12 is not a power of 2") (fun () ->
    ignore (Lower_bound.beta_pow ~base:2 ~m_exp:10 12))

let test_section_6_1_formula () =
  (* The tight matmul bound max(L1 L2 L3 / sqrt M, L1 L2, L2 L3, L1 L3),
     checked across regimes with power-of-two sizes (so beta is exact). *)
  let m = 1 lsl 10 in
  let check_case (l1, l2, l3) =
    let spec = Kernels.matmul ~l1 ~l2 ~l3 in
    let b = Pipeline.lower_bound spec ~m in
    let f = float_of_int in
    let expect =
      Float.max
        (f l1 *. f l2 *. f l3 /. sqrt (f m))
        (Float.max (f l1 *. f l2) (Float.max (f l2 *. f l3) (f l1 *. f l3)))
    in
    let ratio = b.Lower_bound.words_paper /. expect in
    if ratio < 0.95 || ratio > 1.05 then
      Alcotest.failf "L=(%d,%d,%d): bound %.1f vs formula %.1f" l1 l2 l3 b.Lower_bound.words
        expect
  in
  List.iter check_case
    [
      (1024, 1024, 1024);
      (1024, 1024, 1);
      (1024, 1024, 4);
      (1024, 1024, 32);
      (4, 1024, 1024);
      (1024, 2, 1024);
      (64, 64, 64);
      (2048, 16, 16);
    ]

let test_matvec_bound_words () =
  let spec = Kernels.matvec ~m:512 ~n:512 in
  let b = Pipeline.lower_bound spec ~m:4096 in
  Alcotest.(check bool) "LB ~ L1 L2" true
    (Float.abs (b.Lower_bound.words -. 262144.0) /. 262144.0 < 0.02);
  (* the classic formula is far too weak here *)
  Alcotest.(check bool) "classic under-estimates" true
    (b.Lower_bound.words_classic < b.Lower_bound.words /. 10.0)

(* ------------------------------------------------------------------ *)
(* Tiling (Theorem 3 / Section 5)                                     *)
(* ------------------------------------------------------------------ *)

let test_tiling_lp_matmul () =
  let sol = Tiling.solve_lp mm ~beta:[| Rat.one; Rat.one; rr 1 4 |] in
  check_r "value" (rr 5 4) sol.Tiling.value;
  check_r "lambda3 at bound" (rr 1 4) sol.Tiling.lambda.(2)

let test_integer_tile_matmul_small_l3 () =
  let spec = Kernels.matmul ~l1:1024 ~l2:1024 ~l3:8 in
  let m = 4096 in
  let tile = Tiling.optimal spec ~m in
  Alcotest.(check bool) "feasible" true (Tiling.is_feasible spec ~m tile);
  Alcotest.(check int) "volume = M L3" (m * 8) (Tiling.volume tile);
  Alcotest.(check int) "L3 dimension filled" 8 tile.(2)

let test_integer_tile_cube () =
  let spec = Kernels.matmul ~l1:1024 ~l2:1024 ~l3:1024 in
  let m = 4096 in
  let tile = Tiling.optimal spec ~m in
  Alcotest.(check bool) "feasible" true (Tiling.is_feasible spec ~m tile);
  Array.iter (fun b -> Alcotest.(check int) "side = 64" 64 b) tile

let test_of_lambda_repairs_infeasible () =
  let spec = Kernels.matmul ~l1:1024 ~l2:1024 ~l3:1024 in
  let m = 256 in
  (* lambda = all ones is wildly infeasible (M x M x M tile). *)
  let tile = Tiling.of_lambda spec ~m [| Rat.one; Rat.one; Rat.one |] in
  Alcotest.(check bool) "repaired to feasible" true (Tiling.is_feasible spec ~m tile)

let test_of_lambda_validation () =
  Alcotest.check_raises "arity" (Invalid_argument "Tiling.of_lambda: arity mismatch") (fun () ->
    ignore (Tiling.of_lambda mm ~m:64 [| Rat.one |]));
  Alcotest.check_raises "bad m" (Invalid_argument "Tiling.of_lambda: cache size must be positive")
    (fun () -> ignore (Tiling.of_lambda mm ~m:0 [| Rat.one; Rat.one; Rat.one |]))

let test_footprints () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let b = [| 8; 4; 2 |] in
  Alcotest.(check int) "C = b1 b3" 16 (Tiling.footprint spec b 0);
  Alcotest.(check int) "A = b1 b2" 32 (Tiling.footprint spec b 1);
  Alcotest.(check int) "B = b2 b3" 8 (Tiling.footprint spec b 2);
  Alcotest.(check int) "max" 32 (Tiling.max_footprint spec b);
  Alcotest.(check int) "total" 56 (Tiling.total_footprint spec b);
  Alcotest.(check int) "tiles" (8 * 16 * 32) (Tiling.num_tiles spec b)

let test_analytic_traffic () =
  let spec = Kernels.matmul ~l1:16 ~l2:16 ~l3:16 in
  let b = [| 4; 4; 4 |] in
  (* 4 tiles per dim. A (update? no, read): loaded once per x3-tile:
     16*16 * 4. B: 16*16 * 4. C (update): read+write 16*16 * 4 each. *)
  let t = Tiling.analytic_traffic spec b in
  Alcotest.(check (float 0.01)) "reads" (float_of_int ((256 * 4) + (256 * 4) + (256 * 4))) t.Tiling.reads;
  Alcotest.(check (float 0.01)) "writes" (float_of_int (256 * 4)) t.Tiling.writes

let test_analytic_traffic_clipped () =
  (* Non-dividing tile sizes: accounting must still be exact. *)
  let spec = Kernels.matmul ~l1:10 ~l2:7 ~l3:5 in
  let b = [| 3; 3; 2 |] in
  (* tiles along: ceil(10/3)=4, ceil(7/3)=3, ceil(5/2)=3 *)
  let t = Tiling.analytic_traffic spec b in
  (* C(10x5): once per x2-tile: 50*3 reads + 50*3 writes.
     A(10x7): once per x3-tile: 70*3. B(7x5): once per x1-tile: 35*4. *)
  Alcotest.(check (float 0.01)) "reads" (float_of_int ((50 * 3) + (70 * 3) + (35 * 4))) t.Tiling.reads;
  Alcotest.(check (float 0.01)) "writes" (float_of_int (50 * 3)) t.Tiling.writes

(* ------------------------------------------------------------------ *)
(* Alpha family (Section 6.1)                                         *)
(* ------------------------------------------------------------------ *)

let test_alpha_lambda_endpoints () =
  let beta3 = rr 1 4 in
  let l0 = Alpha_family.lambda ~beta3 ~alpha:Rat.zero in
  check_r "alpha=0: 1-b3" (rr 3 4) l0.(0);
  check_r "alpha=0: b3" (rr 1 4) l0.(1);
  let l1 = Alpha_family.lambda ~beta3 ~alpha:Rat.one in
  check_r "alpha=1: 1/2" Rat.half l1.(0);
  check_r "alpha=1: 1/2" Rat.half l1.(1);
  check_r "lambda3 = b3 always" beta3 l1.(2)

let test_alpha_all_optimal () =
  (* Every alpha gives sum(lambda) = 1 + beta3, the LP optimum. *)
  let beta3 = rr 3 8 in
  List.iter
    (fun a ->
      let l = Alpha_family.lambda ~beta3 ~alpha:(rr a 8) in
      check_r
        (Printf.sprintf "alpha=%d/8" a)
        (Rat.add Rat.one beta3)
        (Array.fold_left Rat.add Rat.zero l))
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_alpha_tiles_feasible () =
  let spec = Kernels.matmul ~l1:1024 ~l2:1024 ~l3:8 in
  let m = 4096 in
  List.iter
    (fun (_, tile) ->
      Alcotest.(check bool) "feasible" true (Tiling.is_feasible spec ~m tile);
      (* within a factor 2 of the optimal M*L3 cardinality *)
      Alcotest.(check bool) "volume" true (Tiling.volume tile * 2 >= m * 8))
    (Alpha_family.sample ~steps:8 spec ~m)

let test_alpha_validation () =
  Alcotest.check_raises "alpha range"
    (Invalid_argument "Alpha_family.lambda: alpha must lie in [0, 1]") (fun () ->
    ignore (Alpha_family.lambda ~beta3:Rat.zero ~alpha:(Rat.of_int 2)));
  Alcotest.check_raises "beta3 range"
    (Invalid_argument "Alpha_family.lambda: beta3 must lie in [0, 1/2]") (fun () ->
    ignore (Alpha_family.lambda ~beta3:Rat.one ~alpha:Rat.zero));
  Alcotest.(check bool) "is_matmul_shaped" true (Alpha_family.is_matmul_shaped mm);
  Alcotest.(check bool) "nbody not matmul" false
    (Alpha_family.is_matmul_shaped (Kernels.nbody ~l1:4 ~l2:4));
  Alcotest.check_raises "tile wants small L3"
    (Invalid_argument "Alpha_family.tile: L3 exceeds sqrt M; use the classical cube tile")
    (fun () ->
      ignore (Alpha_family.tile (Kernels.matmul ~l1:64 ~l2:64 ~l3:64) ~m:16 ~alpha:Rat.zero))

(* ------------------------------------------------------------------ *)
(* Closed form (Section 7)                                            *)
(* ------------------------------------------------------------------ *)

let test_closed_form_matmul_pieces () =
  let cf = Closed_form.compute mm in
  let rendered = Format.asprintf "%a" Closed_form.pp cf in
  (* min(b1+b2+b3, 1+b3, 1+b2, 1+b1, 3/2) in some order *)
  Alcotest.(check int) "5 pieces" 5 (Closed_form.num_pieces cf);
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " present") true (Astring.String.is_infix ~affix:frag rendered))
    [ "3/2"; "1 + b(x1)"; "1 + b(x2)"; "1 + b(x3)"; "b(x1) + b(x2) + b(x3)" ]

let test_closed_form_nbody () =
  let cf = Closed_form.compute (Kernels.nbody ~l1:8 ~l2:8) in
  (* min(2, 1 + b1, 1 + b2, b1 + b2) — Section 6.3 *)
  Alcotest.(check int) "4 pieces" 4 (Closed_form.num_pieces cf)

let test_closed_form_eval_matches_lp () =
  let cf = Closed_form.compute mm in
  let betas =
    [
      [| Rat.one; Rat.one; Rat.one |];
      [| rr 1 3; rr 1 5; rr 2 7 |];
      [| Rat.zero; Rat.zero; Rat.zero |];
      [| Rat.of_int 3; Rat.one; rr 1 2 |];
    ]
  in
  List.iter
    (fun beta ->
      check_r "cf = lp" (Tiling.solve_lp mm ~beta).Tiling.value (Closed_form.eval cf beta))
    betas

(* ------------------------------------------------------------------ *)
(* Analyze                                                            *)
(* ------------------------------------------------------------------ *)

let test_analyze_matmul () =
  match Pipeline.run_checked (Pipeline.request (Kernels.matmul ~l1:256 ~l2:256 ~l3:256) ~m:1024) with
  | Error e -> Alcotest.failf "analysis failed: %s" (Engine_error.to_string e)
  | Ok r ->
    Alcotest.(check bool) "tile feasible" true
      (Tiling.is_feasible r.Report.spec ~m:1024 r.Report.tile);
    Alcotest.(check bool) "attainment close" true
      (r.Report.attainment >= 0.9 && r.Report.attainment <= 6.0)


(* ------------------------------------------------------------------ *)
(* Subgroup constraints (Theorem 6.6 of [CDK+13], quoted in Sec 3)    *)
(* ------------------------------------------------------------------ *)

let test_subgroup_ranks () =
  let spec = Kernels.matmul ~l1:4 ~l2:4 ~l3:4 in
  (* H = <e1, e2>: rank 2; phi_A(H) (support {x1,x2}) has rank 2,
     phi_C (support {x1,x3}) rank 1, phi_B (support {x2,x3}) rank 1. *)
  let gens = [| [| 1; 0; 0 |]; [| 0; 1; 0 |] |] in
  Alcotest.(check int) "rank H" 2 (Subgroup_check.rank_subgroup gens);
  Alcotest.(check int) "rank C(H)" 1 (Subgroup_check.rank_image spec gens 0);
  Alcotest.(check int) "rank A(H)" 2 (Subgroup_check.rank_image spec gens 1);
  Alcotest.(check int) "rank B(H)" 1 (Subgroup_check.rank_image spec gens 2);
  (* dependent generators do not inflate the rank *)
  let gens2 = [| [| 1; 1; 0 |]; [| 2; 2; 0 |] |] in
  Alcotest.(check int) "dependent rank" 1 (Subgroup_check.rank_subgroup gens2)

let test_subgroup_constraint_eval () =
  let spec = Kernels.matmul ~l1:4 ~l2:4 ~l3:4 in
  let s_opt = (Simplex.solve_exn (Hbl_lp.hbl spec)).Simplex.primal in
  (* the diagonal subgroup <(1,1,1)>: each projection has rank 1, so
     1/2+1/2+1/2 >= 1 holds *)
  Alcotest.(check bool) "diagonal" true
    (Subgroup_check.constraint_holds spec ~s:s_opt [| [| 1; 1; 1 |] |]);
  (* an infeasible s violates some axis *)
  let s_bad = [| Rat.zero; Rat.zero; Rat.zero |] in
  Alcotest.(check bool) "zero s fails" false (Subgroup_check.axis_constraints_hold spec ~s:s_bad)

let test_subgroup_axis_subsets () =
  List.iter
    (fun (_, spec) ->
      let s = (Simplex.solve_exn (Hbl_lp.hbl spec)).Simplex.primal in
      Alcotest.(check bool) "axis subsets" true (Subgroup_check.verify_all_axis_subsets spec ~s))
    (Kernels.all ())

(* ------------------------------------------------------------------ *)
(* Critical regions (Section 7)                                       *)
(* ------------------------------------------------------------------ *)

let test_regions_matmul () =
  let cf = Closed_form.compute mm in
  let regions = Closed_form.regions cf in
  Alcotest.(check int) "one region per piece" (Closed_form.num_pieces cf)
    (List.length regions);
  List.iter
    (fun r ->
      (* the witness lies in its own region and evaluates the piece as
         the minimum *)
      Alcotest.(check bool) "witness in region" true (Closed_form.region_contains r r.Closed_form.witness);
      Alcotest.(check bool) "witness minimizes piece" true
        (Rat.equal
           (Closed_form.eval cf r.Closed_form.witness)
           (Closed_form.eval_piece r.Closed_form.piece r.Closed_form.witness)))
    regions

let test_regions_cover_box () =
  (* every sampled beta belongs to at least one region, and the
     containing region's piece achieves the minimum there *)
  let cf = Closed_form.compute (Kernels.nbody ~l1:4 ~l2:4) in
  let regions = Closed_form.regions cf in
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 100 do
    let beta = Array.init 2 (fun _ -> Rat.of_ints (Random.State.int rng 33) 8) in
    let containing = List.filter (fun r -> Closed_form.region_contains r beta) regions in
    if containing = [] then Alcotest.fail "uncovered beta";
    List.iter
      (fun r ->
        Alcotest.(check bool) "region piece is minimal there" true
          (Rat.equal (Closed_form.eval cf beta) (Closed_form.eval_piece r.Closed_form.piece beta)))
      containing
  done

let test_region_rendering () =
  let cf = Closed_form.compute mm in
  let r = List.hd (Closed_form.regions cf) in
  let s = Format.asprintf "%a" (Closed_form.pp_region ~loops:mm.Spec.loops) r in
  Alcotest.(check bool) "mentions witness" true (Astring.String.is_infix ~affix:"witness" s)

(* ------------------------------------------------------------------ *)
(* Shared-budget tiles                                                *)
(* ------------------------------------------------------------------ *)

let test_optimal_shared_fits_total () =
  List.iter
    (fun (name, spec) ->
      List.iter
        (fun m ->
          let tile = Tiling.optimal_shared spec ~m in
          if Tiling.total_footprint spec tile > m then
            Alcotest.failf "%s M=%d: total footprint %d > %d" name m
              (Tiling.total_footprint spec tile) m;
          Alcotest.(check bool) (name ^ " within bounds") true
            (Array.for_all2 (fun b l -> 1 <= b && b <= l) tile spec.Spec.bounds))
        [ 16; 256; 4096 ])
    (Kernels.all ())

(* Small caches: the seed's per-array budget shrinks below the 2 words
   the bound's beta needs, where the all-ones tile is the only fit. Every
   m from one word per array up to 2n + 2 must give a tile (and a nested
   ladder) whose total footprint fits. *)
let test_optimal_shared_small_caches () =
  List.iter
    (fun (name, spec) ->
      let n = Spec.num_arrays spec in
      for m = n to (2 * n) + 2 do
        let tile = Tiling.optimal_shared spec ~m in
        if Tiling.total_footprint spec tile > m then
          Alcotest.failf "%s M=%d: total footprint %d > %d" name m
            (Tiling.total_footprint spec tile) m
      done;
      List.iter2
        (fun m t ->
          if Tiling.total_footprint spec t > m then
            Alcotest.failf "%s nested level M=%d: total footprint %d" name m
              (Tiling.total_footprint spec t))
        [ n; n + 1 ]
        (Tiling.nested spec ~ms:[| n; n + 1 |]))
    (Kernels.all ())

let test_optimal_shared_no_worse_than_scaled () =
  (* The shared-budget search should never lose badly, under real LRU
     simulation, to the naive per-array M/n heuristic. (Exact ordering is
     not guaranteed — the search optimizes an analytic model — so allow a
     modest tolerance.) *)
  List.iter
    (fun (name, spec) ->
      let m = 1024 in
      let n = Spec.num_arrays spec in
      let measure tile =
        (Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:m).Executor.words_moved
      in
      let shared = measure (Tiling.optimal_shared spec ~m) in
      let scaled = measure (Tiling.optimal spec ~m:(m / n)) in
      if float_of_int shared > (1.25 *. float_of_int scaled) +. 64.0 then
        Alcotest.failf "%s: shared %d much worse than scaled %d (LRU words)" name shared scaled)
    (Kernels.all ())

let test_optimal_shared_validation () =
  Alcotest.check_raises "tiny cache"
    (Invalid_argument "Tiling.optimal_shared: cache smaller than one word per array") (fun () ->
    ignore (Tiling.optimal_shared mm ~m:2))

(* Small specs (2-3 loops, modest bounds) where the reference search's
   per-candidate tile-grid walk is affordable, for byte-identity checks
   of the pruned search and the closed-form retained model. *)
let gen_small_spec =
  QCheck.Gen.(
    int_range 2 3 >>= fun d ->
    int_range 2 3 >>= fun n ->
    let gen_support = list_size (int_range 1 d) (int_range 0 (d - 1)) in
    list_size (return n) gen_support >>= fun supports ->
    let supports = Array.of_list supports in
    let supports =
      Array.mapi
        (fun j s -> (List.init d (fun i -> i) |> List.filter (fun i -> i mod n = j)) @ s)
        supports
    in
    array_size (return d) (int_range 1 24) >>= fun bounds ->
    let arrays =
      Array.mapi
        (fun j s ->
          Spec.array_ref
            ~mode:(if j = 0 then Spec.Update else Spec.Read)
            (Printf.sprintf "A%d" j) s)
        supports
    in
    let loops = Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
    match Spec.create ~name:"small" ~loops ~bounds ~arrays with
    | Ok s -> return s
    | Error e -> failwith (Spec.string_of_error e))

let arb_small_spec = QCheck.make ~print:print_spec gen_small_spec

let gen_tile_for spec =
  QCheck.Gen.(
    let d = Spec.num_loops spec in
    array_size (return d) (float_range 0.0 1.0) >>= fun fs ->
    return
      (Array.init d (fun i ->
         let l = spec.Spec.bounds.(i) in
         Stdlib.max 1 (Stdlib.min l (1 + int_of_float (fs.(i) *. float_of_int l))))))

let arb_small_spec_tile =
  QCheck.make
    ~print:(fun (s, b) ->
      Printf.sprintf "%s\ntile=[%s]" (print_spec s)
        (String.concat ";" (List.map string_of_int (Array.to_list b))))
    QCheck.Gen.(gen_small_spec >>= fun s -> gen_tile_for s >>= fun b -> return (s, b))

let shared_props =
  [
    (* The closed-form retained model must reproduce the tile-grid walk
       bit for bit: both compute exact integer word counts below 2^53,
       so even the float accumulation agrees exactly. *)
    QCheck.Test.make ~name:"closed-form retained traffic = grid walk" ~count:300
      arb_small_spec_tile (fun (spec, b) ->
        let cf = Tiling.analytic_traffic_retained spec b in
        let walk = Tiling.analytic_traffic_retained_walk spec b in
        cf.Tiling.reads = walk.Tiling.reads && cf.Tiling.writes = walk.Tiling.writes);
    (* The pruned branch-and-bound with the closed-form objective must
       return byte-identical tiles to the original exhaustive search
       with the walk objective. *)
    QCheck.Test.make ~name:"pruned optimal_shared = reference search" ~count:120
      (QCheck.pair arb_small_spec (QCheck.int_range 8 512))
      (fun (spec, m) ->
        QCheck.assume (m >= Spec.num_arrays spec);
        Tiling.optimal_shared spec ~m = Tiling.optimal_shared_reference spec ~m);
  ]

(* Regression: bounds near max_int. The power-of-two ladder used to loop
   forever (v * 2 wraps negative before v >= l can hold), the tile-count
   product wrapped negative which defeated the walk's cap check, and the
   4*fp <= 3*m headroom test wrapped. All must now terminate and return
   finite, sane answers. *)
let test_huge_bounds_terminate () =
  let huge = (max_int / 2) + 11 in
  let arrays =
    [|
      Spec.array_ref ~mode:Spec.Update "C" [ 0; 1 ];
      Spec.array_ref ~mode:Spec.Read "A" [ 0; 2 ];
      Spec.array_ref ~mode:Spec.Read "B" [ 2; 1 ];
    |]
  in
  let spec =
    match
      Spec.create ~name:"huge" ~loops:[| "i"; "j"; "k" |] ~bounds:[| huge; huge; huge |] ~arrays
    with
    | Ok s -> s
    | Error e -> Alcotest.fail (Spec.string_of_error e)
  in
  let m = 4096 in
  let tile = Tiling.optimal_shared spec ~m in
  Alcotest.(check bool) "total footprint fits" true (Tiling.total_footprint spec tile <= m);
  Alcotest.(check bool) "tile within bounds" true
    (Array.for_all2 (fun b l -> 1 <= b && b <= l) tile spec.Spec.bounds);
  let check_traffic name (tr : Tiling.traffic) =
    Alcotest.(check bool)
      (name ^ " finite & positive")
      true
      (Float.is_finite tr.Tiling.reads && Float.is_finite tr.Tiling.writes
     && tr.Tiling.reads > 0.0 && tr.Tiling.writes > 0.0)
  in
  check_traffic "analytic" (Tiling.analytic_traffic spec tile);
  check_traffic "retained" (Tiling.analytic_traffic_retained spec tile);
  Alcotest.(check bool) "num_tiles saturates positive" true (Tiling.num_tiles spec tile > 0)

let test_theorem2_q_validation () =
  Alcotest.check_raises "bad q index" (Invalid_argument "Hbl_lp.theorem2_q: index out of range")
    (fun () -> ignore (Hbl_lp.theorem2_q mm ~beta:[| Rat.one; Rat.one; Rat.one |] ~q:[ 5 ]));
  Alcotest.check_raises "beta arity" (Invalid_argument "beta arity mismatch") (fun () ->
    ignore (Hbl_lp.tiling mm ~beta:[| Rat.one |]));
  Alcotest.check_raises "negative beta" (Invalid_argument "beta must be non-negative")
    (fun () -> ignore (Hbl_lp.dual_tiling mm ~beta:[| Rat.one; Rat.minus_one; Rat.one |]))

let test_enumeration_dim_guard () =
  (* a 21-loop nest exceeds the default 2^d guard *)
  let d = 21 in
  let arrays = [| Spec.array_ref ~mode:Spec.Update "A" (List.init d (fun i -> i)) |] in
  let spec =
    Spec.create_exn ~name:"big"
      ~loops:(Array.init d (fun i -> Printf.sprintf "x%d" i))
      ~bounds:(Array.make d 2) ~arrays
  in
  let beta = Array.make d Rat.one in
  (match Lower_bound.exponent_by_enumeration spec ~beta with
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "mentions max_dim" true (Astring.String.is_infix ~affix:"max_dim" msg)
  | _ -> Alcotest.fail "expected guard to trip");
  (* the LP route still works at this dimension *)
  let e = Lower_bound.exponent_by_lp spec ~beta in
  Alcotest.(check bool) "LP route fine" true (Rat.equal e.Lower_bound.k_hat Rat.one)

let test_closed_form_box_argument () =
  (* a piece dominated inside a small box but useful in a big one *)
  let spec = Kernels.nbody ~l1:4 ~l2:4 in
  let small = Closed_form.compute ~box:(Rat.of_ints 1 2) spec in
  let big = Closed_form.compute ~box:(Rat.of_int 4) spec in
  (* within [0, 1/2]^2 the constant piece 2 is never strictly minimal *)
  Alcotest.(check bool) "small box has fewer pieces" true
    (Closed_form.num_pieces small < Closed_form.num_pieces big);
  (* both agree with the LP inside the small box *)
  let beta = [| Rat.of_ints 1 4; Rat.of_ints 3 8 |] in
  Alcotest.(check bool) "agree inside" true
    (Rat.equal (Closed_form.eval small beta) (Closed_form.eval big beta))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let props =
  [
    (* Theorem 6.6: axis feasibility implies every subgroup constraint. *)
    QCheck.Test.make ~name:"axis-feasible s satisfies random subgroups" ~count:60 arb_spec
      (fun spec ->
        let s = (Simplex.solve_exn (Hbl_lp.hbl spec)).Simplex.primal in
        Subgroup_check.axis_constraints_hold spec ~s
        && Subgroup_check.verify_random_subgroups ~trials:50 ~seed:42 spec ~s
        && Subgroup_check.verify_all_axis_subsets spec ~s);
    QCheck.Test.make ~name:"beta_of_bounds matches beta_pow on powers of two" ~count:100
      (QCheck.pair (QCheck.int_range 1 20) (QCheck.int_range 2 20))
      (fun (l_exp, m_exp) ->
        let m = 1 lsl m_exp and l = 1 lsl l_exp in
        let via_float = (Lower_bound.beta_of_bounds ~m [| l |]).(0) in
        let exact = Lower_bound.beta_pow ~base:2 ~m_exp l in
        Rat.equal via_float exact);
    (* The centerpiece: Theorem 3. LP (5.1) optimum, its explicit dual,
       and the 2^d Theorem-2 enumeration all agree. *)
    QCheck.Test.make ~name:"theorem3: LP = dual = enumeration" ~count:120 arb_spec_beta
      (fun (spec, beta) ->
        let v_tiling = (Tiling.solve_lp spec ~beta).Tiling.value in
        let v_dual = (Simplex.solve_exn (Hbl_lp.dual_tiling spec ~beta)).Simplex.objective in
        let v_enum = (Lower_bound.exponent_by_enumeration spec ~beta).Lower_bound.k_hat in
        let v_lp = (Lower_bound.exponent_by_lp spec ~beta).Lower_bound.k_hat in
        Rat.equal v_tiling v_dual && Rat.equal v_tiling v_enum && Rat.equal v_tiling v_lp);
    (* One pricing function for the bound: the plan-priced and the
       LP-priced bound agree field for field, and the canonical witness is
       an inclusion-minimal Theorem-2 minimizer. *)
    QCheck.Test.make ~name:"bound priced by plan = priced by LP; witness minimal" ~count:80
      arb_spec_beta (fun (spec, beta) ->
        let m = 64 in
        let plan = Tiling_plan.compile spec in
        let lambda, k_hat = Tiling_plan.answer plan ~beta in
        let by_plan =
          Lower_bound.communication spec ~m ~beta ~lambda ~k_hat
            ~price:(fun beta -> Tiling_plan.value plan ~beta)
        in
        let lp = Tiling.solve_lp_lexmax spec ~beta in
        let by_lp =
          Lower_bound.communication spec ~m ~beta ~lambda:lp.Tiling.lambda
            ~k_hat:lp.Tiling.value ~price:(fun beta -> Tiling.lp_value spec ~beta)
        in
        let q = by_plan.Lower_bound.exponent.Lower_bound.witness_q in
        let k_q q = Lower_bound.k_of_q spec ~beta ~q in
        let classic =
          by_plan.Lower_bound.iterations
          *. Float.exp
               (Rat.to_float (Rat.sub Rat.one (Hbl_lp.s_hbl spec)) *. log (float_of_int m))
        in
        Lower_bound.equal by_plan by_lp
        && Rat.equal (k_q q) k_hat
        && List.for_all (fun i -> Rat.compare (k_q (List.filter (( <> ) i) q)) k_hat > 0) q
        && Float.equal by_plan.Lower_bound.words_classic classic
        && Rat.equal k_hat (Lower_bound.exponent_by_lp spec ~beta).Lower_bound.k_hat);
    QCheck.Test.make ~name:"literal Theorem-2 formula is a valid (weaker) bound" ~count:80
      arb_spec_beta (fun (spec, beta) ->
        let d = Spec.num_loops spec in
        let k_hat = (Lower_bound.exponent_by_lp spec ~beta).Lower_bound.k_hat in
        List.for_all
          (fun mask ->
            let q = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init d (fun i -> i)) in
            let k_lit = Lower_bound.k_of_q_literal spec ~beta ~q in
            let k_q = Lower_bound.k_of_q spec ~beta ~q in
            Rat.compare k_lit k_q >= 0 && Rat.compare k_q k_hat >= 0)
          (List.init (1 lsl d) (fun m -> m)));
    QCheck.Test.make ~name:"k_hat monotone in beta" ~count:80 arb_spec_beta
      (fun (spec, beta) ->
        let bigger = Array.map (fun b -> Rat.add b (rr 1 8)) beta in
        Rat.compare
          (Lower_bound.exponent_by_lp spec ~beta).Lower_bound.k_hat
          (Lower_bound.exponent_by_lp spec ~beta:bigger).Lower_bound.k_hat
        <= 0);
    QCheck.Test.make ~name:"k_hat capped by s_hbl and sum beta" ~count:80 arb_spec_beta
      (fun (spec, beta) ->
        let k = (Lower_bound.exponent_by_lp spec ~beta).Lower_bound.k_hat in
        Rat.compare k (Hbl_lp.s_hbl spec) <= 0
        && Rat.compare k (Array.fold_left Rat.add Rat.zero beta) <= 0);
    QCheck.Test.make ~name:"optimal integer tile always feasible" ~count:80
      (QCheck.pair arb_spec (QCheck.int_range 4 4096))
      (fun (spec, m) -> Tiling.is_feasible spec ~m (Tiling.optimal spec ~m));
    (* The rounding repair inside of_lambda: after shrinking an
       overflowing dimension, the tile must end up feasible but must not
       collapse to the all-ones tile when the budget admits any larger
       one (i.e. some single dimension could still be 2). *)
    QCheck.Test.make ~name:"of_lambda repair: feasible, never needlessly all-ones"
      ~count:150
      (QCheck.pair arb_spec (QCheck.int_range 2 4096))
      (fun (spec, m) ->
        let beta = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
        let tile = Tiling.of_lambda spec ~m (Tiling.solve_lp spec ~beta).Tiling.lambda in
        let d = Spec.num_loops spec in
        let grown_feasible i =
          spec.Spec.bounds.(i) >= 2
          && Tiling.is_feasible spec ~m
               (Array.init d (fun j -> if j = i then 2 else 1))
        in
        Tiling.is_feasible spec ~m tile
        && (Tiling.volume tile > 1
            || not (List.exists grown_feasible (List.init d (fun i -> i)))));
    QCheck.Test.make ~name:"lambda solution respects beta box" ~count:80 arb_spec_beta
      (fun (spec, beta) ->
        let sol = Tiling.solve_lp spec ~beta in
        Array.for_all2 (fun l b -> Rat.compare l b <= 0) sol.Tiling.lambda beta);
    QCheck.Test.make ~name:"closed form = LP inside box" ~count:40
      (QCheck.make ~print:(fun ((s, b), _) ->
           Printf.sprintf "%s beta=[%s]" (print_spec s)
             (String.concat ";" (List.map Rat.to_string (Array.to_list b))))
         QCheck.Gen.(
           gen_spec >>= fun s ->
           (* keep shapes small so vertex enumeration stays fast *)
           if Spec.num_loops s + Spec.num_arrays s > 8 then
             return ((Kernels.nbody ~l1:4 ~l2:4, [| Rat.one; Rat.half |]), true)
           else gen_beta (Spec.num_loops s) >>= fun b -> return ((s, b), false)))
      (fun ((spec, beta), _) ->
        let beta = Array.map (fun b -> Rat.min b (Rat.of_int 4)) beta in
        let cf = Closed_form.compute spec in
        Rat.equal (Closed_form.eval cf beta) (Tiling.solve_lp spec ~beta).Tiling.value);
    QCheck.Test.make ~name:"tile volume near brute-force optimum (tiny cases)" ~count:30
      (QCheck.make
         ~print:(fun (s, m) -> Printf.sprintf "%s M=%d" (print_spec s) m)
         QCheck.Gen.(
           (* 2-3 loops, bounds <= 8, so exhaustive search is cheap *)
           int_range 2 3 >>= fun d ->
           array_size (return d) (int_range 1 8) >>= fun bounds ->
           let arrays =
             if d = 2 then
               [| Spec.array_ref ~mode:Spec.Update "C" [ 0; 1 ]; Spec.array_ref "a" [ 0 ];
                  Spec.array_ref "b" [ 1 ] |]
             else
               [| Spec.array_ref ~mode:Spec.Update "C" [ 0; 2 ]; Spec.array_ref "A" [ 0; 1 ];
                  Spec.array_ref "B" [ 1; 2 ] |]
           in
           let loops = Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
           int_range 2 64 >>= fun m ->
           match Spec.create ~name:"tiny" ~loops ~bounds ~arrays with
           | Ok s -> return (s, m)
           | Error e -> failwith (Spec.string_of_error e)))
      (fun (spec, m) ->
        let d = Spec.num_loops spec in
        let tile = Tiling.optimal spec ~m in
        (* brute force best feasible rectangle *)
        let best = ref 0 in
        let b = Array.make d 1 in
        let rec go i =
          if i = d then begin
            if Tiling.is_feasible spec ~m b then best := max !best (Tiling.volume b)
          end
          else
            for v = 1 to spec.Spec.bounds.(i) do
              b.(i) <- v;
              go (i + 1)
            done
        in
        go 0;
        (* The grown integer tile is maximal; it should be within the
           constant factor 4 of the absolute best rectangle. *)
        Tiling.volume tile * 4 >= !best);
    QCheck.Test.make ~name:"analytic traffic >= trivial array sizes" ~count:60
      (QCheck.pair arb_spec (QCheck.int_range 4 1024))
      (fun (spec, m) ->
        let tile = Tiling.optimal spec ~m in
        let t = Tiling.analytic_traffic spec tile in
        t.Tiling.reads +. t.Tiling.writes >= 0.99 *. float_of_int (Spec.total_array_words spec));
  ]

let () =
  Alcotest.run "hbl"
    [
      ( "hbl-lp",
        [
          Alcotest.test_case "s_hbl values" `Quick test_s_hbl_values;
          Alcotest.test_case "matmul LP solution" `Quick test_hbl_lp_matmul_solution;
          Alcotest.test_case "reduced LP" `Quick test_reduced_hbl;
        ] );
      ( "lower-bound",
        [
          Alcotest.test_case "matmul exponent" `Quick test_matmul_exponent_cases;
          Alcotest.test_case "symmetric small" `Quick test_matmul_symmetric_small;
          Alcotest.test_case "matvec witness" `Quick test_witness_q_matvec;
          Alcotest.test_case "nbody exponent" `Quick test_nbody_exponent;
          Alcotest.test_case "contraction = matmul" `Quick test_contraction_reduces_to_matmul;
          Alcotest.test_case "k_of_q empty" `Quick test_k_of_q_empty_is_s_hbl;
          Alcotest.test_case "literal vs LP" `Quick test_k_of_q_literal_vs_lp;
          Alcotest.test_case "beta_of_bounds" `Quick test_beta_of_bounds;
          Alcotest.test_case "beta_pow" `Quick test_beta_pow;
          Alcotest.test_case "Section 6.1 formula" `Quick test_section_6_1_formula;
          Alcotest.test_case "matvec words" `Quick test_matvec_bound_words;
        ] );
      ( "tiling",
        [
          Alcotest.test_case "LP matmul" `Quick test_tiling_lp_matmul;
          Alcotest.test_case "integer tile small L3" `Quick test_integer_tile_matmul_small_l3;
          Alcotest.test_case "integer tile cube" `Quick test_integer_tile_cube;
          Alcotest.test_case "repair" `Quick test_of_lambda_repairs_infeasible;
          Alcotest.test_case "validation" `Quick test_of_lambda_validation;
          Alcotest.test_case "footprints" `Quick test_footprints;
          Alcotest.test_case "analytic traffic" `Quick test_analytic_traffic;
          Alcotest.test_case "clipped traffic" `Quick test_analytic_traffic_clipped;
        ] );
      ( "alpha-family",
        [
          Alcotest.test_case "endpoints" `Quick test_alpha_lambda_endpoints;
          Alcotest.test_case "all optimal" `Quick test_alpha_all_optimal;
          Alcotest.test_case "tiles feasible" `Quick test_alpha_tiles_feasible;
          Alcotest.test_case "validation" `Quick test_alpha_validation;
        ] );
      ( "closed-form",
        [
          Alcotest.test_case "matmul pieces" `Quick test_closed_form_matmul_pieces;
          Alcotest.test_case "nbody pieces" `Quick test_closed_form_nbody;
          Alcotest.test_case "eval matches LP" `Quick test_closed_form_eval_matches_lp;
        ] );
      ("analyze", [ Alcotest.test_case "matmul report" `Quick test_analyze_matmul ]);
      ( "subgroups",
        [
          Alcotest.test_case "ranks" `Quick test_subgroup_ranks;
          Alcotest.test_case "constraint eval" `Quick test_subgroup_constraint_eval;
          Alcotest.test_case "axis subsets" `Quick test_subgroup_axis_subsets;
        ] );
      ( "regions",
        [
          Alcotest.test_case "matmul regions" `Quick test_regions_matmul;
          Alcotest.test_case "regions cover box" `Quick test_regions_cover_box;
          Alcotest.test_case "rendering" `Quick test_region_rendering;
        ] );
      ( "guards",
        [
          Alcotest.test_case "theorem2_q validation" `Quick test_theorem2_q_validation;
          Alcotest.test_case "enumeration dim guard" `Quick test_enumeration_dim_guard;
          Alcotest.test_case "closed-form box" `Quick test_closed_form_box_argument;
        ] );
      ( "shared-tiles",
        [
          Alcotest.test_case "fits total budget" `Quick test_optimal_shared_fits_total;
          Alcotest.test_case "small caches" `Quick test_optimal_shared_small_caches;
          Alcotest.test_case "no worse than scaled" `Quick test_optimal_shared_no_worse_than_scaled;
          Alcotest.test_case "validation" `Quick test_optimal_shared_validation;
          Alcotest.test_case "huge bounds terminate" `Quick test_huge_bounds_terminate;
        ] );
      ("shared-tile properties", List.map QCheck_alcotest.to_alcotest shared_props);
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]

(* Tests for the Section-7 distributed-memory extension. *)

let bigint =
  Alcotest.testable
    (fun fmt b -> Format.pp_print_string fmt (Bigint.to_string b))
    (fun a b -> Bigint.compare a b = 0)

let test_grids_enumeration () =
  let spec = Kernels.matmul ~l1:8 ~l2:8 ~l3:8 in
  let gs = Partition.grids spec ~p:4 in
  (* factorizations of 4 into 3 parts: (1,1,4),(1,2,2),(1,4,1),(2,1,2),
     (2,2,1),(4,1,1) *)
  Alcotest.(check int) "count" 6 (List.length gs);
  List.iter
    (fun g -> Alcotest.(check int) "product" 4 (Array.fold_left ( * ) 1 g))
    gs

let test_grids_respect_bounds () =
  let spec = Kernels.matmul ~l1:2 ~l2:8 ~l3:8 in
  let gs = Partition.grids spec ~p:4 in
  List.iter
    (fun g -> Alcotest.(check bool) "p1 <= L1" true (g.(0) <= 2))
    gs;
  (* p too large to factor within bounds *)
  let tiny = Kernels.nbody ~l1:2 ~l2:2 in
  Alcotest.(check (list (array int))) "no grid" [] (Partition.grids tiny ~p:8)

let test_divisors () =
  Alcotest.(check (list int)) "12" [ 1; 2; 3; 4; 6; 12 ] (Partition.divisors 12);
  Alcotest.(check (list int)) "1" [ 1 ] (Partition.divisors 1);
  Alcotest.(check (list int)) "prime" [ 1; 97 ] (Partition.divisors 97);
  Alcotest.(check (list int)) "square" [ 1; 2; 4; 8; 16 ] (Partition.divisors 16)

let spec_d6 l =
  (* a 6-deep nest (grid enumeration only looks at the bounds) *)
  Spec.create_exn ~name:"d6"
    ~loops:[| "a"; "b"; "c"; "d"; "e"; "f" |]
    ~bounds:(Array.make 6 l)
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "Z" [ 0; 1; 2 ];
        Spec.array_ref "A" [ 3; 4; 5 ];
      |]

let test_grids_highly_composite () =
  (* P = 4096 over d = 6: the divisor ladder walks only divisor chains,
     so the worst-named case of the old dense enumerator stays far under
     the default budget. 4096 = 2^12 into 6 ordered factors, each <= 16:
     compositions of 12 into 6 parts of at most 4 -> 1751 grids. *)
  let gs = Partition.grids (spec_d6 16) ~p:4096 in
  Alcotest.(check int) "grid count" 1751 (List.length gs);
  List.iter
    (fun g ->
      Alcotest.(check int) "product" 4096 (Array.fold_left ( * ) 1 g);
      Array.iter (fun f -> Alcotest.(check bool) "within bounds" true (f >= 1 && f <= 16)) g)
    gs

let test_grids_budget () =
  (* an explicit tiny budget trips the typed refusal; the default does not *)
  (try
     ignore (Partition.grids ~budget:10 (spec_d6 16) ~p:4096);
     Alcotest.fail "budget 10 accepted 4096^6"
   with Invalid_argument msg ->
     Alcotest.(check bool) "carries the shape-too-large marker" true
       (Astring.String.is_infix ~affix:"shape too large" msg));
  Alcotest.(check bool) "engine maps it to Shape_too_large" true
    (match
       Engine_error.of_exn (Invalid_argument "Partition.grids: shape too large: budget")
     with
    | Some (Engine_error.Shape_too_large _) -> true
    | _ -> false)

let test_block_dims () =
  let spec = Kernels.matmul ~l1:10 ~l2:8 ~l3:8 in
  Alcotest.(check (array int)) "ceil division" [| 4; 4; 8 |]
    (Partition.block_dims spec ~grid:[| 3; 2; 1 |]);
  Alcotest.check bigint "block iterations" (Bigint.of_int (4 * 4 * 8))
    (Partition.block_iterations spec ~grid:[| 3; 2; 1 |])

let test_cost_matmul () =
  let spec = Kernels.matmul ~l1:8 ~l2:8 ~l3:8 in
  let c = Comm_model.cost spec ~grid:[| 2; 2; 2 |] in
  (* block 4x4x4; each array footprint 16 -> 48 words *)
  Alcotest.check bigint "cost" (Bigint.of_int 48) c.Comm_model.words;
  let c2 = Comm_model.cost spec ~grid:[| 8; 1; 1 |] in
  (* block 1x8x8: C 1*8=8, A 1*8=8, B 64 -> 80 *)
  Alcotest.check bigint "1d cost" (Bigint.of_int 80) c2.Comm_model.words

let test_best_grid_is_balanced () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  match Comm_model.best_grid spec ~p:8 with
  | None -> Alcotest.fail "factorable"
  | Some g ->
    Alcotest.(check (array int)) "cube grid" [| 2; 2; 2 |] g.Comm_model.grid

let test_best_grid_adapts_to_small_bound () =
  (* L3 tiny: splitting the x3 dimension is useless; the best grid should
     put the processors on x1/x2. *)
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:2 in
  match Comm_model.best_grid spec ~p:16 with
  | None -> Alcotest.fail "factorable"
  | Some g ->
    Alcotest.(check int) "x3 not split" 1 g.Comm_model.grid.(2);
    Alcotest.(check int) "4x4 on the big dims" 16 (g.Comm_model.grid.(0) * g.Comm_model.grid.(1))

let test_lower_bound_sane () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let lb = Comm_model.lower_bound spec ~p:8 in
  (match Comm_model.best_grid spec ~p:8 with
  | None -> Alcotest.fail "factorable"
  | Some g ->
    (* best-grid cost within a small constant (n = 3 arrays) of the bound *)
    let ratio = Bigint.to_float g.Comm_model.words /. lb in
    if ratio < 1.0 || ratio > 4.0 then
      Alcotest.failf "ratio %.2f outside [1, 4] (cost %s, lb %.1f)" ratio
        (Bigint.to_string g.Comm_model.words) lb);
  (* single processor: needs at least enough footprint for everything *)
  let lb1 = Comm_model.lower_bound spec ~p:1 in
  Alcotest.(check bool) "P=1 >= P=8" true (lb1 >= lb)

let test_min_footprint_monotone () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let f1 = Comm_model.min_footprint spec ~iterations:1000.0 in
  let f2 = Comm_model.min_footprint spec ~iterations:100000.0 in
  Alcotest.(check bool) "monotone" true (f2 >= f1);
  Alcotest.(check (float 0.01)) "trivial" 1.0 (Comm_model.min_footprint spec ~iterations:1.0)

(* Exact powers used to land one word high (257 for 256) or, at p = 1,
   far off (989 for nbody 256^2 against 768 words). *)
let test_lower_bound_exact_powers () =
  let lb name spec ~p expect =
    Alcotest.(check (float 0.0)) name expect (Comm_model.lower_bound spec ~p)
  in
  lb "matmul 64^3, p = 1" (Kernels.matmul ~l1:64 ~l2:64 ~l3:64) ~p:1 4096.0;
  lb "matmul 64^3, p = 64" (Kernels.matmul ~l1:64 ~l2:64 ~l3:64) ~p:64 256.0;
  lb "matmul 64^3, p = 8" (Kernels.matmul ~l1:64 ~l2:64 ~l3:64) ~p:8 1024.0;
  lb "nbody 256^2, p = 1" (Kernels.nbody ~l1:256 ~l2:256) ~p:1 256.0;
  lb "nbody 1024x4, p = 1" (Kernels.nbody ~l1:1024 ~l2:4) ~p:1 1024.0;
  lb "outer product 128^2, p = 1" (Kernels.outer_product ~m:128 ~n:128) ~p:1 16384.0;
  lb "one iteration per processor" (Kernels.nbody ~l1:4 ~l2:4) ~p:16 1.0

let test_min_footprint_matches_hk () =
  (* Large-bounds matmul: V iterations need footprint ~ V^(2/3)
     (Hong-Kung / Irony-Toledo-Tiskin shape). *)
  let spec = Kernels.matmul ~l1:4096 ~l2:4096 ~l3:4096 in
  let v = 1.0e6 in
  let f = Comm_model.min_footprint spec ~iterations:v in
  let expect = Float.pow v (2.0 /. 3.0) in
  let ratio = f /. expect in
  Alcotest.(check bool) "within 10%" true (ratio > 0.9 && ratio < 1.1)


let test_simulated_cost_matches_analytic () =
  List.iter
    (fun (spec, p) ->
      List.iter
        (fun grid ->
          Alcotest.check bigint
            (Printf.sprintf "grid %s"
               (String.concat "x" (Array.to_list (Array.map string_of_int grid))))
            (Comm_model.cost spec ~grid).Comm_model.words
            (Bigint.of_int (Comm_model.simulated_cost spec ~grid)))
        (Partition.grids spec ~p))
    [
      (Kernels.matmul ~l1:12 ~l2:10 ~l3:8, 4);
      (Kernels.nbody ~l1:16 ~l2:12, 6);
      (Kernels.pointwise_conv ~b:4 ~c:4 ~k:4 ~w:4 ~h:4, 8);
    ]


let test_block_groups () =
  (* ragged 10x8x8 over a 3x2x1 grid: two distinct block shapes — the
     full 4x4x8 block (4 processors) and the 2-wide remainder (2) *)
  let spec = Kernels.matmul ~l1:10 ~l2:8 ~l3:8 in
  let groups = Comm_model.block_groups spec ~grid:[| 3; 2; 1 |] in
  (match groups with
  | (shape, count) :: _ ->
    Alcotest.(check (array int)) "full-size block first" [| 4; 4; 8 |] shape;
    Alcotest.(check int) "four full blocks" 4 count
  | [] -> Alcotest.fail "no groups");
  Alcotest.(check int) "two shapes" 2 (List.length groups);
  Alcotest.(check int) "every processor accounted for" 6
    (List.fold_left (fun a (_, c) -> a + c) 0 groups);
  (* per-group simulation: the full block dominates, and its distinct
     addresses equal the analytic per-processor cost *)
  let full = Comm_model.simulated_block spec ~block:[| 4; 4; 8 |] in
  List.iter
    (fun (shape, _) ->
      Alcotest.(check bool) "full block dominates" true
        (Comm_model.simulated_block spec ~block:shape <= full))
    groups;
  Alcotest.check bigint "max group = analytic cost"
    (Comm_model.cost spec ~grid:[| 3; 2; 1 |]).Comm_model.words
    (Bigint.of_int full);
  (* an evenly divisible nest collapses to a single group of P blocks *)
  let even = Kernels.matmul ~l1:8 ~l2:8 ~l3:8 in
  Alcotest.(check int) "uniform nest: one group" 1
    (List.length (Comm_model.block_groups even ~grid:[| 2; 2; 2 |]))

let rat_str = Alcotest.testable (fun fmt r -> Format.pp_print_string fmt (Rat.to_string r)) Rat.equal

let test_partition_solve_regimes () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  (match Partition_solve.solve spec ~p:64 ~m_local:4096 ~net:Partition_solve.Words with
  | None -> Alcotest.fail "factorable"
  | Some s ->
    Alcotest.(check (array int)) "cube grid" [| 4; 4; 4 |] s.Partition_solve.grid;
    Alcotest.(check (array int)) "block" [| 16; 16; 16 |] s.Partition_solve.block;
    Alcotest.(check bool) "memory-independent" true
      (s.Partition_solve.regime = Partition_solve.Memory_independent);
    Alcotest.check bigint "words = gather (tile covers the block)"
      s.Partition_solve.gather_words s.Partition_solve.words;
    Alcotest.(check string) "exact words" "768" (Bigint.to_string s.Partition_solve.words);
    Alcotest.(check bool) "above the continuous lower bound" true
      (Bigint.to_float s.Partition_solve.words >= s.Partition_solve.lower_bound);
    Alcotest.(check int) "all candidates seen" 28 s.Partition_solve.grids_enumerated);
  (* a tight per-processor memory flips to the memory-dependent regime:
     the tile no longer covers the block, so words exceed the gather *)
  (match Partition_solve.solve spec ~p:64 ~m_local:24 ~net:Partition_solve.Words with
  | None -> Alcotest.fail "factorable"
  | Some s ->
    Alcotest.(check bool) "memory-dependent" true
      (s.Partition_solve.regime = Partition_solve.Memory_dependent);
    Alcotest.(check bool) "words > gather" true
      (Bigint.compare s.Partition_solve.words s.Partition_solve.gather_words > 0));
  (* a prime p beyond every bound has no grid *)
  let tiny = Kernels.nbody ~l1:7 ~l2:7 in
  Alcotest.(check bool) "unfactorable" true
    (Partition_solve.solve tiny ~p:11 ~m_local:64 ~net:Partition_solve.Words = None)

let test_partition_solve_alpha_beta () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let alpha = Rat.of_int 100 and beta = Rat.of_ints 1 2 in
  match
    Partition_solve.solve spec ~p:64 ~m_local:4096
      ~net:(Partition_solve.Alpha_beta { alpha; beta })
  with
  | None -> Alcotest.fail "factorable"
  | Some s ->
    (* the objective is exactly alpha x messages + beta x words *)
    Alcotest.check rat_str "time decomposes"
      (Rat.add
         (Rat.mul_int alpha s.Partition_solve.messages)
         (Rat.mul beta (Rat.of_bigint s.Partition_solve.words)))
      s.Partition_solve.time;
    (* all-gather rounds: one per grid dimension split, ceil(log2 fiber) *)
    Alcotest.(check int) "messages for the 4x4x4 grid" 6 s.Partition_solve.messages

let test_memory_independent_matches_aldaas () =
  (* The memory-independent per-processor volume lands exactly on the
     Al Daas-Ballard-Grigori-Kumar-Rouse closed forms (arXiv:2205.13407)
     when the bounds divide evenly — one point per regime, L1>=L2>=L3:
       3D (P >= L1L2/L3^2):          3 (L1 L2 L3 / P)^(2/3)
       2D (L1/L2 <= P <= L1L2/L3^2): L1 L2 / P + 2 L3 sqrt(L1 L2 / P)
       1D (P <= L1/L2):              L1 (L2 + L3) / P + L2 L3 *)
  let check_point name ~l1 ~l2 ~l3 ~p expect =
    let spec = Kernels.matmul ~l1 ~l2 ~l3 in
    match Partition_solve.solve spec ~p ~m_local:(1 lsl 22) ~net:Partition_solve.Words with
    | None -> Alcotest.failf "%s: unfactorable" name
    | Some s ->
      Alcotest.(check bool) (name ^ " memory-independent") true
        (s.Partition_solve.regime = Partition_solve.Memory_independent);
      Alcotest.(check (float 1e-9)) (name ^ " = closed form") expect
        (Bigint.to_float s.Partition_solve.words)
  in
  (* 3D: cube, P = 64 >= 64^2/64^2 = 1: 3 (64^3/64)^(2/3) = 768 *)
  check_point "3D" ~l1:64 ~l2:64 ~l3:64 ~p:64 768.0;
  (* 2D: 256x256x8, P = 16 in [1, 1024]: 65536/16 + 2*8*sqrt(4096) = 5120 *)
  check_point "2D" ~l1:256 ~l2:256 ~l3:8 ~p:16 5120.0;
  (* 1D: 1024x4x4, P = 8 <= 256: 1024*8/8 + 16 = 1040 *)
  check_point "1D" ~l1:1024 ~l2:4 ~l3:4 ~p:8 1040.0

let test_simulate_processor_regimes () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let grid = [| 2; 2; 2 |] in
  let gather = Bigint.to_int (Comm_model.cost spec ~grid).Comm_model.words in
  let sim m = (Comm_model.simulate_processor spec ~grid ~m_local:m).Comm_model.words_per_proc in
  (* tiny local memory: re-fetching dominates, cost above the gather volume *)
  Alcotest.(check bool) "small M exceeds gather" true (sim 128 > gather);
  (* big local memory: everything is fetched once (plus output writeback) *)
  let big = sim 16384 in
  Alcotest.(check bool) "big M near gather" true
    (float_of_int big < 1.5 *. float_of_int gather);
  (* monotone in local memory *)
  Alcotest.(check bool) "monotone" true (sim 128 >= sim 512 && sim 512 >= sim 4096);
  Alcotest.check_raises "oversized block"
    (Invalid_argument "Comm_model.simulate_processor: block too large to simulate") (fun () ->
    ignore
      (Comm_model.simulate_processor
         (Kernels.matmul ~l1:4096 ~l2:4096 ~l3:4096)
         ~grid:[| 1; 1; 1 |] ~m_local:256))

(* Overflow regressions: with native-int arithmetic both of these wrapped
   negative on 63-bit ints (2^21 cubed = 2^63), silently corrupting grid
   selection and simulability guards. *)

let overflow_spec =
  (* C has full 3-loop support, so one processor's block footprint alone
     is 2^63 words. *)
  let l = 1 lsl 21 in
  Spec.create_exn ~name:"overflow" ~loops:[| "i"; "j"; "k" |] ~bounds:[| l; l; l |]
    ~arrays:
      [|
        Spec.array_ref ~mode:Spec.Update "C" [ 0; 1; 2 ];
        Spec.array_ref "A" [ 0; 1 ];
      |]

let test_block_iterations_overflow () =
  let n = Partition.block_iterations overflow_spec ~grid:[| 1; 1; 1 |] in
  Alcotest.(check string) "exact 2^63" "9223372036854775808" (Bigint.to_string n);
  Alcotest.(check bool) "exceeds max_int" true (Bigint.compare n (Bigint.of_int max_int) > 0);
  (* the native product is 2^63 mod 2^63 = 0 on 63-bit ints — the old
     code reported zero iterations for this nest *)
  Alcotest.(check int) "native product wraps" 0
    (Array.fold_left ( * ) 1 overflow_spec.Spec.bounds)

let test_cost_overflow () =
  let c = Comm_model.cost overflow_spec ~grid:[| 1; 1; 1 |] in
  (* C footprint 2^63 + A footprint 2^42 *)
  let expect =
    Bigint.add (Bigint.pow (Bigint.of_int 2) 63) (Bigint.pow (Bigint.of_int 2) 42)
  in
  Alcotest.check bigint "exact footprint" expect c.Comm_model.words;
  Alcotest.(check bool) "exceeds max_int" true
    (Bigint.compare c.Comm_model.words (Bigint.of_int max_int) > 0)

let test_best_grid_overflow_ordering () =
  (* With wrapped costs the 1x1x1 grid looked negative, i.e. "cheapest";
     exact arithmetic must still order grids correctly. *)
  match Comm_model.best_grid overflow_spec ~p:8 with
  | None -> Alcotest.fail "factorable"
  | Some g ->
    Alcotest.(check bool) "best grid splits the nest" true
      (Array.fold_left ( * ) 1 g.Comm_model.grid = 8);
    let worst = Comm_model.cost overflow_spec ~grid:[| 1; 1; 1 |] in
    Alcotest.(check bool) "cheaper than the unsplit block" true
      (Bigint.compare g.Comm_model.words worst.Comm_model.words < 0)

let test_min_footprint_overflow () =
  (* The doubling search used to wrap a native int at 2^62 and spin
     forever at 0 once the needed footprint passed max_int. *)
  let lb = Comm_model.lower_bound overflow_spec ~p:1 in
  Alcotest.(check bool) "terminates with a finite bound" true (Float.is_finite lb);
  Alcotest.(check bool) "past max_int" true (lb > float_of_int max_int)

let test_simulate_processor_overflow_guard () =
  (* The simulability guard must reject the 2^63-iteration block rather
     than wrap negative and start allocating. *)
  Alcotest.check_raises "oversized block"
    (Invalid_argument "Comm_model.simulate_processor: block too large to simulate")
    (fun () ->
      ignore (Comm_model.simulate_processor overflow_spec ~grid:[| 1; 1; 1 |] ~m_local:256))

let props =
  [
    (* the acceptance property of the partition solver's cost model: the
       analytic per-processor gather volume equals a literal address-set
       simulation of the block, over random kernels and every grid *)
    QCheck.Test.make ~name:"analytic cost = simulated cost" ~count:40
      (QCheck.make
         ~print:(fun (k, l1, l2, p) -> Printf.sprintf "kernel=%d L1=%d L2=%d P=%d" k l1 l2 p)
         QCheck.Gen.(
           quad (int_range 0 2) (int_range 4 14) (int_range 4 14) (oneofl [ 2; 3; 4; 6; 8; 12 ])))
      (fun (k, l1, l2, p) ->
        let spec =
          match k with
          | 0 -> Kernels.matmul ~l1 ~l2 ~l3:((l1 + l2) / 2)
          | 1 -> Kernels.nbody ~l1 ~l2
          | _ -> Kernels.pointwise_conv ~b:2 ~c:(1 + (l1 / 2)) ~k:(1 + (l2 / 2)) ~w:3 ~h:3
        in
        List.for_all
          (fun grid ->
            Bigint.compare
              (Comm_model.cost spec ~grid).Comm_model.words
              (Bigint.of_int (Comm_model.simulated_cost spec ~grid))
            = 0)
          (Partition.grids spec ~p));
    (* the divisor ladder is a pure re-enumeration: same grids, same
       (ascending lexicographic) order as the definitional generator *)
    QCheck.Test.make ~name:"divisor ladder = brute force" ~count:40
      (QCheck.make
         ~print:(fun (l, p) -> Printf.sprintf "L=%d P=%d" l p)
         QCheck.Gen.(pair (int_range 2 20) (int_range 1 36)))
      (fun (l, p) ->
        let spec = Kernels.matmul ~l1:l ~l2:(l + 1) ~l3:(l + 2) in
        let brute =
          (* all ordered triples of [1..p] within bounds whose product is p *)
          List.concat_map
            (fun a ->
              List.concat_map
                (fun b ->
                  List.filter_map
                    (fun c ->
                      if a * b * c = p && a <= l && b <= l + 1 && c <= l + 2 then
                        Some [| a; b; c |]
                      else None)
                    (List.init p (fun i -> i + 1)))
                (List.init p (fun i -> i + 1)))
            (List.init p (fun i -> i + 1))
        in
        Partition.grids spec ~p = brute);
    QCheck.Test.make ~name:"grid costs bounded below by the LB" ~count:80
      (QCheck.make
         ~print:(fun (k, l, p) -> Printf.sprintf "kernel=%d L=%d P=%d" k l p)
         QCheck.Gen.(triple (int_range 0 3) (int_range 8 64) (oneofl [ 1; 2; 4; 8; 16 ])))
      (fun (k, l, p) ->
        let spec =
          match k with
          | 0 -> Kernels.matmul ~l1:l ~l2:l ~l3:l
          | 1 -> Kernels.nbody ~l1:l ~l2:(l + 3)
          | 2 -> Kernels.three_body ~l1:l ~l2:(l + 1) ~l3:(l + 2)
          | _ -> Kernels.outer_product ~m:l ~n:(2 * l)
        in
        let lb = Comm_model.lower_bound spec ~p in
        List.for_all
          (fun grid ->
            (* the per-array bound can't exceed the summed footprint *)
            Bigint.to_float (Comm_model.cost spec ~grid).Comm_model.words >= lb)
          (Partition.grids spec ~p));
    (* the one LP reads off the binding vertex of Section 7's polyhedron:
       the same rounding of the largest (I / prod L_i^zeta_i)^(1/sigma)
       over the plan's pieces with sigma > 0 *)
    QCheck.Test.make ~name:"LB = max over the plan's pieces" ~count:150
      (QCheck.make
         ~print:(fun (k, bounds, p) ->
           Printf.sprintf "preset=%d bounds=[%s] P=%d" k
             (String.concat "," (List.map string_of_int bounds)) p)
         QCheck.Gen.(
           triple (int_range 0 9) (list_repeat 5 (int_range 1 300))
             (oneofl [ 1; 2; 3; 4; 8; 64; 1000 ])))
      (fun (k, bounds, p) ->
        let base = snd (List.nth (Kernels.all ()) k) in
        let spec =
          Spec.with_bounds base
            (Array.of_list (List.filteri (fun i _ -> i < Spec.num_loops base) bounds))
        in
        let ln_l = Array.map (fun l -> log (float_of_int l)) spec.Spec.bounds in
        let ln_i = Array.fold_left ( +. ) 0.0 ln_l -. log (float_of_int p) in
        let expected =
          if ln_i <= 0.0 then 1.0
          else
            List.fold_left
              (fun acc (sigma, zeta) ->
                if Rat.sign sigma <= 0 then acc
                else begin
                  let z = ref 0.0 in
                  Array.iteri (fun i zi -> z := !z +. (Rat.to_float zi *. ln_l.(i))) zeta;
                  Float.max acc (Float.exp ((ln_i -. !z) /. Rat.to_float sigma))
                end)
              1.0
              (Tiling_plan.pieces (Tiling_plan.compile spec))
            |> fun f -> Float.max 1.0 (Float.ceil (f *. (1.0 -. 1e-9)))
        in
        let lb = Comm_model.lower_bound spec ~p in
        lb = expected || QCheck.Test.fail_reportf "lower_bound %.17g, pieces give %.17g" lb expected);
    QCheck.Test.make ~name:"block covers iteration share" ~count:50
      (QCheck.make
         ~print:(fun (l, p) -> Printf.sprintf "L=%d P=%d" l p)
         QCheck.Gen.(pair (int_range 4 32) (oneofl [ 2; 3; 4; 6; 8 ])))
      (fun (l, p) ->
        let spec = Kernels.matmul ~l1:l ~l2:l ~l3:l in
        List.for_all
          (fun grid ->
            Bigint.compare
              (Bigint.mul (Partition.block_iterations spec ~grid) (Bigint.of_int p))
              (Spec.iteration_count_big spec)
            >= 0)
          (Partition.grids spec ~p));
  ]

let () =
  Alcotest.run "distrib"
    [
      ( "partition",
        [
          Alcotest.test_case "grids enumeration" `Quick test_grids_enumeration;
          Alcotest.test_case "bounds respected" `Quick test_grids_respect_bounds;
          Alcotest.test_case "divisors" `Quick test_divisors;
          Alcotest.test_case "highly composite p" `Quick test_grids_highly_composite;
          Alcotest.test_case "enumeration budget" `Quick test_grids_budget;
          Alcotest.test_case "block dims" `Quick test_block_dims;
        ] );
      ( "comm-model",
        [
          Alcotest.test_case "cost matmul" `Quick test_cost_matmul;
          Alcotest.test_case "best grid balanced" `Quick test_best_grid_is_balanced;
          Alcotest.test_case "best grid small bound" `Quick test_best_grid_adapts_to_small_bound;
          Alcotest.test_case "lower bound sane" `Quick test_lower_bound_sane;
          Alcotest.test_case "min footprint monotone" `Quick test_min_footprint_monotone;
          Alcotest.test_case "Hong-Kung shape" `Quick test_min_footprint_matches_hk;
          Alcotest.test_case "exact powers" `Quick test_lower_bound_exact_powers;
          Alcotest.test_case "simulated = analytic cost" `Quick test_simulated_cost_matches_analytic;
          Alcotest.test_case "block groups" `Quick test_block_groups;
          Alcotest.test_case "processor simulation regimes" `Quick test_simulate_processor_regimes;
        ] );
      ( "partition-solve",
        [
          Alcotest.test_case "two regimes" `Quick test_partition_solve_regimes;
          Alcotest.test_case "alpha-beta objective" `Quick test_partition_solve_alpha_beta;
          Alcotest.test_case "Al Daas closed forms" `Quick test_memory_independent_matches_aldaas;
        ] );
      ( "overflow",
        [
          Alcotest.test_case "block iterations exact" `Quick test_block_iterations_overflow;
          Alcotest.test_case "cost exact" `Quick test_cost_overflow;
          Alcotest.test_case "best grid ordering" `Quick test_best_grid_overflow_ordering;
          Alcotest.test_case "min footprint search" `Quick test_min_footprint_overflow;
          Alcotest.test_case "simulate guard" `Quick test_simulate_processor_overflow_guard;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]

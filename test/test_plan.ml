(* The tiling-plan layer (lib/plan + the Pipeline fast path): compiled
   per-shape dual-vertex tables must answer every (bounds, M) request
   with exactly the bytes the LP pipeline produces — these tests pin
   that equivalence (exact rational equality, then report-level byte
   identity), the JSON interchange format, and the oversized-shape
   refusal. *)

let rr a b = Rat.of_ints a b

let pp_beta beta =
  String.concat "," (Array.to_list (Array.map Rat.to_string beta))

(* ------------------------------------------------------------------ *)
(* Random projective programs (every loop covered by some array)       *)
(* ------------------------------------------------------------------ *)

let rand_spec rng =
  let d = 1 + Random.State.int rng 5 in
  let n = 1 + Random.State.int rng 4 in
  let rec arrays tries =
    if tries = 0 then None
    else begin
      let arrs =
        Array.init n (fun j ->
          let sup = List.filter (fun _ -> Random.State.bool rng) (List.init d Fun.id) in
          let sup = if sup = [] then [ Random.State.int rng d ] else sup in
          let mode =
            match Random.State.int rng 3 with
            | 0 -> Spec.Read
            | 1 -> Spec.Write
            | _ -> Spec.Update
          in
          Spec.array_ref ~mode (Printf.sprintf "A%d" j) sup)
      in
      let covered = Array.make d false in
      Array.iter
        (fun (a : Spec.array_ref) -> Array.iter (fun i -> covered.(i) <- true) a.Spec.support)
        arrs;
      if Array.for_all Fun.id covered then Some arrs else arrays (tries - 1)
    end
  in
  match arrays 50 with
  | None -> None
  | Some arrs -> (
    match
      Spec.create ~name:"rand"
        ~loops:(Array.init d (fun i -> Printf.sprintf "x%d" i))
        ~bounds:(Array.make d 8) ~arrays:arrs
    with
    | Ok s -> Some s
    | Error _ -> None)

(* Betas well past the [0, log_M max-bound] box (numerators up to 24,
   integer values up to 8) and with exact-zero components: the plan
   stores the unpruned vertex sets, so it must be exact everywhere. *)
let rand_beta rng d =
  Array.init d (fun _ ->
    match Random.State.int rng 6 with
    | 0 -> Rat.zero
    | 1 -> Rat.of_int (Random.State.int rng 9)
    | _ -> rr (Random.State.int rng 25) (1 + Random.State.int rng 6))

let check_point spec plan beta =
  let pl, pv = Tiling_plan.answer plan ~beta in
  let sol = Tiling.solve_lp_lexmax spec ~beta in
  if not (Rat.equal pv sol.Tiling.value && Array.for_all2 Rat.equal pl sol.Tiling.lambda)
  then
    Alcotest.failf "plan <> LP on %s at beta=[%s]: plan (%s, [%s]) vs lp (%s, [%s])"
      (Tiling_plan.key plan) (pp_beta beta) (Rat.to_string pv) (pp_beta pl)
      (Rat.to_string sol.Tiling.value) (pp_beta sol.Tiling.lambda)

let test_plan_matches_lp_random () =
  let rng = Random.State.make [| 0x9a7 |] in
  let trials = 120 in
  let done_ = ref 0 in
  while !done_ < trials do
    match rand_spec rng with
    | None -> ()
    | Some spec ->
      incr done_;
      let plan = Tiling_plan.compile spec in
      for _ = 1 to 3 do
        check_point spec plan (rand_beta rng (Spec.num_loops spec))
      done
  done

let test_out_of_box_boundary () =
  (* Regression for the closed-form box: Closed_form.compute prunes its
     vertex list to beta in [0,4]^d, a plan must not — probe exactly the
     boundary and beyond it. *)
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let plan = Tiling_plan.compile spec in
  List.iter
    (fun beta -> check_point spec plan beta)
    [
      [| Rat.of_int 4; Rat.of_int 4; Rat.of_int 4 |];
      (* the box corner *)
      [| Rat.of_int 5; rr 9 2; Rat.of_int 6 |];
      (* strictly outside *)
      [| Rat.of_int 100; Rat.of_int 100; Rat.of_int 100 |];
      [| Rat.zero; Rat.of_int 7; rr 1 3 |];
      (* mixed: a collapsed loop next to an out-of-box one *)
    ];
  (* deep outside the box the optimum saturates at the LP's cap *)
  let _, v = Tiling_plan.answer plan ~beta:[| Rat.of_int 100; Rat.of_int 100; Rat.of_int 100 |] in
  Alcotest.(check string) "saturated matmul exponent" "3/2" (Rat.to_string v)

let test_dual_is_feasible_witness () =
  (* The plan's dual is a genuine Theorem-2 witness: y >= 0 with, for
     every loop i, sum over rows covering i plus the loop's own row >= 1
     — checked through the public Report path in test_engine; here just
     arity and non-negativity via the plan API. *)
  let spec = Kernels.pointwise_conv ~b:2 ~c:4 ~k:8 ~w:7 ~h:7 in
  let plan = Tiling_plan.compile spec in
  let beta = Lower_bound.beta_of_bounds ~m:128 spec.Spec.bounds in
  let dual = Tiling_plan.dual plan spec ~beta in
  Alcotest.(check int) "dual arity = arrays + loops"
    (Spec.num_arrays spec + Spec.num_loops spec)
    (Array.length dual);
  Array.iter
    (fun y -> Alcotest.(check bool) "dual >= 0" true (Rat.sign y >= 0))
    dual

(* ------------------------------------------------------------------ *)
(* JSON interchange                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let rng = Random.State.make [| 0x715 |] in
  List.iter
    (fun spec ->
      let plan = Tiling_plan.compile spec in
      let json = Tiling_plan.to_json plan in
      match Jsonlite.parse json with
      | Error msg -> Alcotest.failf "plan JSON unparseable: %s" msg
      | Ok doc -> (
        match Tiling_plan.of_json doc with
        | Error msg -> Alcotest.failf "plan JSON rejected on re-read: %s" msg
        | Ok plan' ->
          (* canonical rendering: decode . encode is the identity *)
          Alcotest.(check string) "re-render byte-identical" json (Tiling_plan.to_json plan');
          Alcotest.(check string) "key survives" (Tiling_plan.key plan) (Tiling_plan.key plan');
          for _ = 1 to 5 do
            let beta = rand_beta rng (Spec.num_loops spec) in
            let l, v = Tiling_plan.answer plan ~beta in
            let l', v' = Tiling_plan.answer plan' ~beta in
            Alcotest.(check bool) "answers survive the round-trip" true
              (Rat.equal v v' && Array.for_all2 Rat.equal l l')
          done))
    [
      Kernels.matmul ~l1:64 ~l2:64 ~l3:64;
      Kernels.nbody ~l1:256 ~l2:256;
      Kernels.mttkrp ~i:8 ~j:8 ~k:8 ~r:4;
    ]

let test_json_rejects_corruption () =
  let plan = Tiling_plan.compile (Kernels.matmul ~l1:8 ~l2:8 ~l3:8) in
  let json = Tiling_plan.to_json plan in
  let expect_error label doc =
    match Jsonlite.parse doc with
    | Error _ -> ()
    | Ok j -> (
      match Tiling_plan.of_json j with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: corrupted plan accepted" label)
  in
  expect_error "not an object" "[1,2,3]";
  expect_error "missing levels" "{\"shape\":\"x\",\"d\":2,\"supports\":[[0],[1]]}";
  expect_error "negative rational"
    (Astring.String.cuts ~sep:"\"1\"" json |> String.concat "\"-1\"");
  expect_error "truncated levels"
    (Astring.String.cuts ~sep:"\"d\":3" json |> String.concat "\"d\":2")

(* ------------------------------------------------------------------ *)
(* Oversized shapes                                                    *)
(* ------------------------------------------------------------------ *)

(* 6 arrays over 20 loops, every array covering 19 of them: ~9*10^5
   candidate bases, far past the 2*10^5 compile budget. *)
let big_spec () =
  let d = 20 and n = 6 in
  let arrays =
    Array.init n (fun j ->
      let mode = if j = 0 then Spec.Update else Spec.Read in
      Spec.array_ref ~mode
        (Printf.sprintf "T%d" j)
        (List.filter (fun i -> i <> j) (List.init d Fun.id)))
  in
  Spec.create_exn ~name:"big"
    ~loops:(Array.init d (fun i -> Printf.sprintf "x%d" i))
    ~bounds:(Array.make d 2) ~arrays

let test_shape_too_large () =
  let spec = big_spec () in
  match Tiling_plan.compile spec with
  | _ -> Alcotest.fail "oversized shape compiled"
  | exception Invalid_argument msg -> (
    match Engine_error.of_exn (Invalid_argument msg) with
    | Some (Engine_error.Shape_too_large _ as e) ->
      Alcotest.(check string) "wire code" "shape_too_large" (Engine_error.code e);
      Alcotest.(check int) "exit code" 11 (Engine_error.exit_code e)
    | Some e -> Alcotest.failf "classified as %s" (Engine_error.code e)
    | None -> Alcotest.fail "not classified at all")

let test_plan_of_negative_cache () =
  Pipeline.reset_caches ();
  let spec = big_spec () in
  (match Pipeline.plan_of spec with
  | Ok _ -> Alcotest.fail "plan_of accepted an oversized shape"
  | Error (Engine_error.Shape_too_large _) -> ()
  | Error e -> Alcotest.failf "plan_of: wrong error %s" (Engine_error.code e));
  (* the failure is cached: asking again must not re-enumerate, and an
     analyze-path request for the same shape still succeeds via LP *)
  (match Pipeline.plan_of spec with
  | Error (Engine_error.Shape_too_large _) -> ()
  | _ -> Alcotest.fail "second plan_of not a cached refusal");
  (match Pipeline.run_checked (Pipeline.request spec ~m:128) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "analyze of oversized shape failed: %s" (Engine_error.code e));
  Pipeline.reset_caches ()

(* ------------------------------------------------------------------ *)
(* Pipeline integration: modes, byte identity, miss collapse           *)
(* ------------------------------------------------------------------ *)

let c_lp_misses = Obs.counter "memo.lp.misses"
let c_plan_hits = Obs.counter "memo.plan.hits"

let repeat_shape_reqs () =
  let specs =
    [
      Kernels.matmul ~l1:32 ~l2:32 ~l3:32;
      Kernels.matmul ~l1:512 ~l2:512 ~l3:4;
      Kernels.nbody ~l1:128 ~l2:1024;
      Kernels.nbody ~l1:64 ~l2:64;
    ]
  in
  ( List.concat_map
      (fun spec ->
        List.map (fun m -> Pipeline.request ~shared:true spec ~m) [ 64; 256; 1024 ])
      specs,
    List.length (List.sort_uniq compare (List.map Memo.key_of_shape specs)) )

let with_mode mode body =
  let m0 = Pipeline.plan_mode () in
  Pipeline.set_plan_mode mode;
  Fun.protect ~finally:(fun () ->
      Pipeline.set_plan_mode m0;
      Pipeline.reset_caches ())
    body

let run_reports reqs =
  List.map
    (function
      | Ok r -> Report.to_json ~timings:false r
      | Error e -> "error:" ^ Engine_error.code e)
    (Pipeline.sweep_checked ~jobs:1 reqs)

let test_plan_off_vs_inline_identical () =
  let reqs, distinct = repeat_shape_reqs () in
  (* "Off" is Plan_deferred never drained by compile_pending: shapes
     only queue, so every point is answered on the LP path. *)
  let off =
    with_mode Pipeline.Plan_deferred (fun () ->
      Pipeline.reset_caches ();
      let m0 = Obs.value c_lp_misses in
      let r = run_reports reqs in
      (r, Obs.value c_lp_misses - m0))
  in
  let on =
    with_mode Pipeline.Plan_inline (fun () ->
      Pipeline.reset_caches ();
      let m0 = Obs.value c_lp_misses in
      let h0 = Obs.value c_plan_hits in
      let r = run_reports reqs in
      (r, Obs.value c_lp_misses - m0, Obs.value c_plan_hits - h0))
  in
  let off_jsons, off_misses = off in
  let on_jsons, on_misses, on_plan_hits = on in
  Alcotest.(check (list string)) "reports byte-identical" off_jsons on_jsons;
  Alcotest.(check int) "plans off: LP missed per point" (List.length reqs) off_misses;
  Alcotest.(check bool)
    (Printf.sprintf "plans on: <= 1 LP miss per distinct shape (%d <= %d)" on_misses distinct)
    true (on_misses <= distinct);
  Alcotest.(check bool) "plan cache actually hit" true (on_plan_hits > 0)

let test_deferred_compiles_between_batches () =
  with_mode Pipeline.Plan_deferred (fun () ->
    Pipeline.reset_caches ();
    let spec = Kernels.matmul ~l1:48 ~l2:48 ~l3:48 in
    (* first request: LP-served, shape queued rather than compiled *)
    (match Pipeline.run_checked (Pipeline.request spec ~m:256) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "analyze: %s" (Engine_error.code e));
    Alcotest.(check int) "shape pending after first touch" 1 (Pipeline.pending_count ());
    Alcotest.(check int) "batch boundary compiles it" 1 (Pipeline.compile_pending ());
    Alcotest.(check int) "queue drained" 0 (Pipeline.pending_count ());
    (* an unseen (bounds, M) point of the same shape is now plan-served:
       no new LP-memo miss *)
    let m0 = Obs.value c_lp_misses in
    (match
       Pipeline.run_checked (Pipeline.request (Kernels.matmul ~l1:96 ~l2:24 ~l3:48) ~m:512)
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "analyze: %s" (Engine_error.code e));
    Alcotest.(check int) "plan-served: zero LP misses" 0 (Obs.value c_lp_misses - m0))

let test_install_preloaded_plan () =
  with_mode Pipeline.Plan_deferred (fun () ->
    Pipeline.reset_caches ();
    let spec = Kernels.mttkrp ~i:16 ~j:16 ~k:16 ~r:8 in
    (* simulate `serve --plans`: install a plan decoded from JSON, then
       even the first request avoids the LP *)
    let plan =
      match Jsonlite.parse (Tiling_plan.to_json (Tiling_plan.compile spec)) with
      | Ok doc -> (
        match Tiling_plan.of_json doc with
        | Ok p -> p
        | Error msg -> Alcotest.failf "of_json: %s" msg)
      | Error msg -> Alcotest.failf "parse: %s" msg
    in
    Pipeline.install_plan plan;
    let m0 = Obs.value c_lp_misses in
    (match Pipeline.run_checked (Pipeline.request spec ~m:4096) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "analyze: %s" (Engine_error.code e));
    Alcotest.(check int) "first request already plan-served" 0 (Obs.value c_lp_misses - m0);
    Alcotest.(check int) "nothing queued for compilation" 0 (Pipeline.pending_count ()))

let () =
  Alcotest.run "plan"
    [
      ( "exactness",
        [
          Alcotest.test_case "plan = lex-max LP on random programs" `Quick
            test_plan_matches_lp_random;
          Alcotest.test_case "out-of-box beta boundary" `Quick test_out_of_box_boundary;
          Alcotest.test_case "dual witness arity/sign" `Quick test_dual_is_feasible_witness;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip is the identity" `Quick test_json_roundtrip;
          Alcotest.test_case "corrupted bundles rejected" `Quick test_json_rejects_corruption;
        ] );
      ( "limits",
        [
          Alcotest.test_case "shape_too_large classification" `Quick test_shape_too_large;
          Alcotest.test_case "plan_of caches the refusal" `Quick test_plan_of_negative_cache;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "off vs inline: byte identity + miss collapse" `Quick
            test_plan_off_vs_inline_identical;
          Alcotest.test_case "deferred: compile between batches" `Quick
            test_deferred_compiles_between_batches;
          Alcotest.test_case "preloaded plan skips the LP" `Quick test_install_preloaded_plan;
        ] );
    ]

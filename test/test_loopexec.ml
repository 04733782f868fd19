(* Tests for layout, schedules, and the executor. *)

(* ------------------------------------------------------------------ *)
(* Layout                                                             *)
(* ------------------------------------------------------------------ *)

let test_layout_disjoint_and_dense () =
  let spec = Kernels.matmul ~l1:4 ~l2:5 ~l3:6 in
  let lay = Layout.make spec in
  Alcotest.(check int) "total words" (Spec.total_array_words spec) (Layout.total_words lay);
  (* every element of every array has a unique in-range address *)
  let seen = Hashtbl.create 64 in
  for j = 0 to Spec.num_arrays spec - 1 do
    let dims = Spec.array_dims spec j in
    let rec go idx k =
      if k = Array.length dims then begin
        let a = Layout.address_of_index lay j (Array.of_list (List.rev idx)) in
        Alcotest.(check bool) "in range" true (a >= 0 && a < Layout.total_words lay);
        Alcotest.(check bool) "unique" false (Hashtbl.mem seen a);
        Hashtbl.add seen a ()
      end
      else
        for v = 0 to dims.(k) - 1 do
          go (v :: idx) (k + 1)
        done
    in
    go [] 0
  done;
  Alcotest.(check int) "all addresses used" (Layout.total_words lay) (Hashtbl.length seen)

let test_layout_projection () =
  let spec = Kernels.matmul ~l1:4 ~l2:5 ~l3:6 in
  let lay = Layout.make spec in
  (* A(x1, x2) ignores x3 *)
  let a1 = Layout.address lay 1 [| 2; 3; 0 |] in
  let a2 = Layout.address lay 1 [| 2; 3; 5 |] in
  Alcotest.(check int) "projection drops x3" a1 a2;
  let a3 = Layout.address lay 1 [| 2; 4; 0 |] in
  Alcotest.(check bool) "distinct elements differ" true (a1 <> a3)

let test_layout_reverse () =
  let spec = Kernels.pointwise_conv ~b:2 ~c:3 ~k:4 ~w:5 ~h:6 in
  let lay = Layout.make spec in
  let addr = Layout.address_of_index lay 1 [| 1; 2; 3; 4 |] in
  (match Layout.array_of_address lay addr with
  | Some (j, idx) ->
    Alcotest.(check int) "array" 1 j;
    Alcotest.(check (array int)) "index" [| 1; 2; 3; 4 |] idx
  | None -> Alcotest.fail "reverse failed");
  Alcotest.(check bool) "out of range" true (Layout.array_of_address lay (-1) = None);
  Alcotest.(check bool) "past end" true
    (Layout.array_of_address lay (Layout.total_words lay) = None)

(* ------------------------------------------------------------------ *)
(* Schedules                                                          *)
(* ------------------------------------------------------------------ *)

let collect spec sched =
  let acc = ref [] in
  Schedules.iterate spec sched (fun p -> acc := Array.copy p :: !acc);
  List.rev !acc

let test_untiled_order () =
  let spec = Kernels.nbody ~l1:2 ~l2:3 in
  Alcotest.(check (list (array int)))
    "lexicographic"
    [ [| 0; 0 |]; [| 0; 1 |]; [| 0; 2 |]; [| 1; 0 |]; [| 1; 1 |]; [| 1; 2 |] ]
    (collect spec Schedules.Untiled)

let test_tiled_order () =
  let spec = Kernels.nbody ~l1:4 ~l2:2 in
  Alcotest.(check (list (array int)))
    "2x2 tiles"
    [
      [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |];
      [| 2; 0 |]; [| 2; 1 |]; [| 3; 0 |]; [| 3; 1 |];
    ]
    (collect spec (Schedules.Tiled [| 2; 2 |]))

let test_tiled_clipping () =
  (* bounds 5 with tile 2: edge tile of width 1; still every point once *)
  let spec = Kernels.nbody ~l1:5 ~l2:3 in
  let pts = collect spec (Schedules.Tiled [| 2; 2 |]) in
  Alcotest.(check int) "count" 15 (List.length pts);
  let tbl = Hashtbl.create 16 in
  List.iter (fun p -> Hashtbl.replace tbl (p.(0), p.(1)) ()) pts;
  Alcotest.(check int) "all distinct" 15 (Hashtbl.length tbl)

let test_schedule_validation () =
  let spec = Kernels.nbody ~l1:4 ~l2:4 in
  (match Schedules.validate spec (Schedules.Tiled [| 2 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "arity must fail");
  (match Schedules.validate spec (Schedules.Tiled [| 0; 2 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero tile must fail");
  (match Schedules.validate spec (Schedules.Tiled [| 5; 2 |]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "oversize tile must fail");
  match Schedules.validate spec (Schedules.Tiled [| 4; 1 |]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid tile rejected: %s" e

let test_classic_tile () =
  let spec = Kernels.matmul ~l1:1024 ~l2:1024 ~l3:1024 in
  let t = Schedules.classic_tile spec ~m:3072 in
  (* side = floor(sqrt(3072/3)) = 32 *)
  Alcotest.(check (array int)) "cube" [| 32; 32; 32 |] t;
  (* clamping against a small bound *)
  let small = Kernels.matmul ~l1:1024 ~l2:1024 ~l3:4 in
  let tc = Schedules.classic_tile small ~m:3072 in
  Alcotest.(check (array int)) "clamped" [| 32; 32; 4 |] tc;
  let tu = Schedules.classic_tile ~clamp:false small ~m:3072 in
  Alcotest.(check (array int)) "unclamped is infeasible" [| 32; 32; 32 |] tu;
  match Schedules.validate small (Schedules.Tiled tu) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unclamped classic tile should be invalid for small bounds"

(* ------------------------------------------------------------------ *)
(* Executor                                                           *)
(* ------------------------------------------------------------------ *)

let test_trace_shape () =
  let spec = Kernels.matmul ~l1:2 ~l2:2 ~l3:2 in
  (* per point: C read + C write + A read + B read = 4 accesses *)
  Alcotest.(check int) "trace length" (8 * 4) (Executor.trace_length spec);
  let t = Executor.trace_of spec ~schedule:Schedules.Untiled in
  Alcotest.(check int) "materialized" 32 (Array.length t);
  (* first point (0,0,0): C read, C write, A read, B read *)
  Alcotest.(check bool) "first is C read" true (not t.(0).Trace.write);
  Alcotest.(check bool) "second is C write" true t.(1).Trace.write;
  Alcotest.(check int) "same C address" t.(0).Trace.addr t.(1).Trace.addr

let test_infinite_cache_traffic () =
  (* Cache big enough for everything: words moved = compulsory misses +
     writebacks of outputs = total words + output words. *)
  let spec = Kernels.matmul ~l1:8 ~l2:8 ~l3:8 in
  let r = Executor.run spec ~schedule:Schedules.Untiled ~capacity:100000 in
  let c_words = Spec.array_words spec 0 in
  Alcotest.(check int) "words moved"
    (Spec.total_array_words spec + c_words)
    r.Executor.words_moved

let test_tiled_beats_untiled () =
  let spec = Kernels.matmul ~l1:48 ~l2:48 ~l3:48 in
  let m = 512 in
  let tile = Tiling.optimal spec ~m:(m / 3) in
  let tiled = Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:m in
  let naive = Executor.run spec ~schedule:Schedules.Untiled ~capacity:m in
  Alcotest.(check bool) "tiled wins by 2x+" true
    (tiled.Executor.words_moved * 2 < naive.Executor.words_moved)

let test_measured_respects_lower_bound () =
  let spec = Kernels.matmul ~l1:48 ~l2:48 ~l3:48 in
  let m = 512 in
  let bound = Pipeline.lower_bound spec ~m in
  List.iter
    (fun sched ->
      List.iter
        (fun policy ->
          let r = Executor.run ~policy spec ~schedule:sched ~capacity:m in
          if float_of_int r.Executor.words_moved < bound.Lower_bound.words *. 0.999 then
            Alcotest.failf "%s/%s moved %d < bound %.1f"
              (Schedules.description spec sched)
              (Policy.to_string policy) r.Executor.words_moved bound.Lower_bound.words)
        [ Policy.Lru; Policy.Fifo; Policy.Opt ])
    [
      Schedules.Untiled;
      Schedules.Tiled (Tiling.optimal spec ~m:(m / 3));
      Schedules.Tiled (Schedules.classic_tile spec ~m);
    ]

let test_optimal_tiling_attains_bound () =
  (* The heart of the reproduction: the constructed tiling's measured
     traffic is within a small constant of the lower bound. *)
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let m = 768 in
  let bound = Pipeline.lower_bound spec ~m in
  let tile = Tiling.optimal spec ~m:(m / 3) in
  let r = Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:m in
  let ratio = float_of_int r.Executor.words_moved /. bound.Lower_bound.words in
  if ratio > 8.0 then Alcotest.failf "attainment ratio %.2f too large" ratio

let test_matvec_traffic_near_matrix_size () =
  let spec = Kernels.matvec ~m:128 ~n:128 in
  let cap = 1024 in
  let tile = Tiling.optimal spec ~m:(cap / 3) in
  let r = Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:cap in
  (* must read the 16384-word matrix once; little else *)
  let ratio = float_of_int r.Executor.words_moved /. 16384.0 in
  Alcotest.(check bool) "within 20% of matrix size" true (ratio >= 1.0 && ratio < 1.2)

let test_opt_policy_via_executor () =
  let spec = Kernels.matmul ~l1:12 ~l2:12 ~l3:12 in
  let tile = Tiling.optimal spec ~m:32 in
  let lru = Executor.run spec ~schedule:(Schedules.Tiled tile) ~capacity:96 in
  let opt = Executor.run ~policy:Policy.Opt spec ~schedule:(Schedules.Tiled tile) ~capacity:96 in
  Alcotest.(check bool) "OPT <= LRU" true
    (opt.Executor.stats.Cache.misses <= lru.Executor.stats.Cache.misses)


(* ------------------------------------------------------------------ *)
(* Permuted and Nested schedules, hierarchy execution                 *)
(* ------------------------------------------------------------------ *)

let test_permuted_order () =
  let spec = Kernels.nbody ~l1:2 ~l2:3 in
  Alcotest.(check (list (array int)))
    "x2 outermost"
    [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |]; [| 0; 2 |]; [| 1; 2 |] ]
    (collect spec (Schedules.Permuted [| 1; 0 |]));
  (* identity permutation = untiled *)
  Alcotest.(check (list (array int)))
    "identity" (collect spec Schedules.Untiled)
    (collect spec (Schedules.Permuted [| 0; 1 |]))

let test_permuted_validation () =
  let spec = Kernels.nbody ~l1:2 ~l2:2 in
  List.iter
    (fun p ->
      match Schedules.validate spec (Schedules.Permuted p) with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "accepted bad permutation")
    [ [| 0 |]; [| 0; 0 |]; [| 0; 2 |]; [| 1; -1 |] ]

let test_permuted_changes_traffic () =
  (* Matvec: y[i] += A[i,j] x[j]. With i outermost, x is re-read L1 times
     but streamed; with j outermost, A is walked column-wise. In both
     orders total distinct words are equal, but cache behaviour differs
     for a small cache. *)
  let spec = Kernels.matvec ~m:64 ~n:64 in
  let cap = 70 in
  let w_ij = (Executor.run spec ~schedule:(Schedules.Permuted [| 0; 1; 2 |]) ~capacity:cap).Executor.words_moved in
  let w_ji = (Executor.run spec ~schedule:(Schedules.Permuted [| 1; 0; 2 |]) ~capacity:cap).Executor.words_moved in
  Alcotest.(check bool)
    (Printf.sprintf "orders differ (%d vs %d)" w_ij w_ji)
    true (w_ij <> w_ji)

let test_nested_validation () =
  let spec = Kernels.matmul ~l1:8 ~l2:8 ~l3:8 in
  (match Schedules.validate spec (Schedules.Nested []) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "empty nested accepted");
  (match Schedules.validate spec (Schedules.Nested [ [| 4; 4; 4 |]; [| 2; 4; 4 |] ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "shrinking nested accepted");
  match Schedules.validate spec (Schedules.Nested [ [| 2; 2; 2 |]; [| 4; 4; 8 |] ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid nested rejected: %s" e

let test_nested_malformed () =
  (* Malformed Nested stacks: every failure mode of validate, with the
     message identifying the problem. *)
  let spec = Kernels.matmul ~l1:8 ~l2:8 ~l3:8 in
  let err sched =
    match Schedules.validate spec sched with
    | Error msg -> msg
    | Ok () -> Alcotest.fail "malformed nested schedule accepted"
  in
  Alcotest.(check bool) "empty stack" true
    (Astring.String.is_infix ~affix:"at least one level" (err (Schedules.Nested [])));
  Alcotest.(check bool) "wrong arity level" true
    (Astring.String.is_infix ~affix:"arity"
       (err (Schedules.Nested [ [| 2; 2 |]; [| 4; 4; 4 |] ])));
  Alcotest.(check bool) "zero tile dimension" true
    (Astring.String.is_infix ~affix:"outside"
       (err (Schedules.Nested [ [| 0; 2; 2 |]; [| 4; 4; 4 |] ])));
  Alcotest.(check bool) "dimension above loop bound" true
    (Astring.String.is_infix ~affix:"outside"
       (err (Schedules.Nested [ [| 2; 2; 2 |]; [| 4; 9; 4 |] ])));
  Alcotest.(check bool) "middle level shrinks" true
    (Astring.String.is_infix ~affix:"grow"
       (err (Schedules.Nested [ [| 2; 2; 2 |]; [| 4; 1; 4 |]; [| 8; 8; 8 |] ])));
  Alcotest.(check bool) "outermost level shrinks" true
    (Astring.String.is_infix ~affix:"grow"
       (err (Schedules.Nested [ [| 2; 2; 2 |]; [| 4; 4; 4 |]; [| 4; 4; 2 |] ])));
  (* equal adjacent levels are legal (a degenerate but valid nesting) *)
  match Schedules.validate spec (Schedules.Nested [ [| 2; 2; 2 |]; [| 2; 2; 2 |] ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "equal levels rejected: %s" e

let test_nested_visits_once () =
  let spec = Kernels.matmul ~l1:7 ~l2:5 ~l3:6 in
  let sched = Schedules.Nested [ [| 2; 2; 2 |]; [| 4; 4; 5 |] ] in
  let pts = collect spec sched in
  Alcotest.(check int) "count" 210 (List.length pts);
  let tbl = Hashtbl.create 64 in
  List.iter (fun p -> Hashtbl.replace tbl (Array.to_list p) ()) pts;
  Alcotest.(check int) "distinct" 210 (Hashtbl.length tbl)

let test_nested_respects_outer_blocks () =
  (* All points of an outer block appear before any point of the next
     outer block. *)
  let spec = Kernels.nbody ~l1:8 ~l2:8 in
  let sched = Schedules.Nested [ [| 2; 2 |]; [| 4; 4 |] ] in
  let pts = collect spec sched in
  let block p = (p.(0) / 4, p.(1) / 4) in
  let seen = Hashtbl.create 8 in
  let current = ref None in
  List.iter
    (fun p ->
      let b = block p in
      match !current with
      | Some c when c = b -> ()
      | _ ->
        if Hashtbl.mem seen b then Alcotest.fail "re-entered an outer block";
        Hashtbl.add seen b ();
        current := Some b)
    pts

let test_nested_tiling_construction () =
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let tiles = Tiling.nested spec ~ms:[| 64; 1024 |] in
  Alcotest.(check int) "two levels" 2 (List.length tiles);
  (match tiles with
  | [ inner; outer ] ->
    Alcotest.(check bool) "monotone" true (Array.for_all2 ( <= ) inner outer);
    (match Schedules.validate spec (Schedules.Nested tiles) with
    | Ok () -> ()
    | Error e -> Alcotest.failf "invalid nested tiles: %s" e)
  | _ -> Alcotest.fail "level count");
  Alcotest.check_raises "bad ladder"
    (Invalid_argument "Tiling.nested: capacities must be strictly increasing") (fun () ->
    ignore (Tiling.nested spec ~ms:[| 64; 64 |]))

let test_hierarchy_execution_nested_wins () =
  (* The headline multi-level result, on a shape where the levels
     genuinely trade off: the nested tiling is simultaneously close to
     each single-level specialist on its strong boundary and strictly
     better on its weak one. (Single-level specialists lean on LRU to do
     implicit second-level blocking, so "close" carries a modest
     constant.) *)
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  let caps = [| 256; 4096 |] in
  let run sched = (Executor.run_hierarchy spec ~schedule:sched ~capacities:caps).Executor.boundary_words in
  let inner = run (Schedules.Tiled (Tiling.optimal_shared spec ~m:caps.(0))) in
  let outer = run (Schedules.Tiled (Tiling.optimal_shared spec ~m:caps.(1))) in
  let naive = run Schedules.Untiled in
  let nested = run (Schedules.Nested (Tiling.nested spec ~ms:caps)) in
  Alcotest.(check bool)
    (Printf.sprintf "L1: nested %d within 2.2x of inner %d" nested.(0) inner.(0))
    true
    (float_of_int nested.(0) <= 2.2 *. float_of_int inner.(0));
  Alcotest.(check bool)
    (Printf.sprintf "mem: nested %d within 1.9x of outer %d" nested.(1) outer.(1))
    true
    (float_of_int nested.(1) <= 1.9 *. float_of_int outer.(1));
  Alcotest.(check bool)
    (Printf.sprintf "L1: nested %d halves outer %d" nested.(0) outer.(0))
    true
    (2 * nested.(0) < outer.(0));
  Alcotest.(check bool)
    (Printf.sprintf "mem: nested %d beats inner %d" nested.(1) inner.(1))
    true
    (nested.(1) < inner.(1));
  Alcotest.(check bool) "beats untiled at both boundaries" true
    (nested.(0) < naive.(0) && nested.(1) < naive.(1))

let test_hierarchy_execution_stats_shape () =
  let spec = Kernels.nbody ~l1:32 ~l2:32 in
  let r = Executor.run_hierarchy spec ~schedule:Schedules.Untiled ~capacities:[| 8; 64; 512 |] in
  Alcotest.(check int) "three levels" 3 (Array.length r.Executor.hstats);
  Alcotest.(check int) "three boundaries" 3 (Array.length r.Executor.boundary_words);
  (* traffic decreases (or stays equal) as we go outward for this nest *)
  Alcotest.(check bool) "monotone traffic" true
    (r.Executor.boundary_words.(0) >= r.Executor.boundary_words.(1)
     && r.Executor.boundary_words.(1) >= r.Executor.boundary_words.(2))

(* ------------------------------------------------------------------ *)
(* The strided row walker against a per-point reference               *)
(* ------------------------------------------------------------------ *)

(* The executor's access order written out point by point: at every
   point of [Schedules.iterate], every array in spec order at
   [Layout.address], an Update as a read then a write. *)
let reference_trace spec sched =
  let layout = Layout.make spec in
  let acc = ref [] in
  Schedules.iterate spec sched (fun point ->
    Array.iteri
      (fun j (a : Spec.array_ref) ->
        let addr = Layout.address layout j point in
        match a.Spec.mode with
        | Spec.Read -> acc := Trace.read addr :: !acc
        | Spec.Write -> acc := Trace.write addr :: !acc
        | Spec.Update -> acc := Trace.write addr :: Trace.read addr :: !acc)
      spec.Spec.arrays);
  Array.of_list (List.rev !acc)

let elided_touches () = Obs.value (Obs.counter "executor.elided_touches")

let elided_by f =
  let before = elided_touches () in
  let r = f () in
  (r, elided_touches () - before)

let test_elision_fires_for_lru () =
  (* Untiled matmul: C(i,j) is invariant along the innermost k row. *)
  let spec = Kernels.matmul ~l1:6 ~l2:6 ~l3:24 in
  let sched = Schedules.Untiled and capacity = 64 in
  let r, elided = elided_by (fun () -> Executor.run spec ~schedule:sched ~capacity) in
  Alcotest.(check bool) (Printf.sprintf "elided %d > 0" elided) true (elided > 0);
  let reference =
    Trace.simulate ~policy:Policy.Lru ~capacity (reference_trace spec sched)
  in
  Alcotest.(check bool) "stats equal the per-point reference" true
    (r.Executor.stats = reference)

let test_elision_never_for_fifo_or_small_caches () =
  let spec = Kernels.matmul ~l1:6 ~l2:6 ~l3:24 in
  let none label f =
    let _, elided = elided_by f in
    Alcotest.(check int) label 0 elided
  in
  none "fifo" (fun () ->
    Executor.run ~policy:Policy.Fifo spec ~schedule:Schedules.Untiled ~capacity:64);
  (* 5 lines < 2n = 6: no period is safe. *)
  none "below 2n lines" (fun () -> Executor.run spec ~schedule:Schedules.Untiled ~capacity:5);
  none "fifo hierarchy" (fun () ->
    Executor.run_hierarchy ~policy:Policy.Fifo spec ~schedule:Schedules.Untiled
      ~capacities:[| 64; 512 |])

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let gen_small_spec =
  QCheck.Gen.(
    int_range 2 4 >>= fun d ->
    array_size (return d) (int_range 1 6) >>= fun bounds ->
    let loops = Array.init d (fun i -> Printf.sprintf "x%d" (i + 1)) in
    int_range 2 3 >>= fun n ->
    let mk_arrays () =
      Array.init n (fun j ->
        Spec.array_ref
          ~mode:(if j = 0 then Spec.Update else Spec.Read)
          (Printf.sprintf "A%d" j)
          (List.filter (fun i -> (i + j) mod n <> 0 || i mod n = j mod n) (List.init d (fun i -> i))))
    in
    let arrays = mk_arrays () in
    (* ensure coverage *)
    let covered = Array.make d false in
    Array.iter (fun (a : Spec.array_ref) -> Array.iter (fun i -> covered.(i) <- true) a.Spec.support) arrays;
    let arrays =
      Array.mapi
        (fun j (a : Spec.array_ref) ->
          if j = 0 then
            Spec.array_ref ~mode:a.Spec.mode a.Spec.aname
              (Array.to_list a.Spec.support
              @ List.filteri (fun i _ -> not covered.(i)) (List.init d (fun i -> i)))
          else a)
        arrays
    in
    match Spec.create ~name:"rand" ~loops ~bounds ~arrays with
    | Ok s -> return s
    | Error e -> failwith (Spec.string_of_error e))

let gen_tile spec =
  QCheck.Gen.(
    let d = Spec.num_loops spec in
    array_size (return d) (int_range 1 6) >>= fun raw ->
    return (Array.mapi (fun i v -> 1 + (v mod spec.Spec.bounds.(i))) raw))

let arb_spec_sched =
  QCheck.make
    ~print:(fun (s, sched) ->
      Format.asprintf "%a / %s" Spec.pp s (Schedules.description s sched))
    QCheck.Gen.(
      gen_small_spec >>= fun s ->
      oneof [ return Schedules.Untiled; map (fun t -> Schedules.Tiled t) (gen_tile s) ]
      >>= fun sched -> return (s, sched))

(* Specs over d, n in 1..4 with every access mode and arbitrary
   supports (scalars included), bounds up to 4 so rows of length 1 and 2
   are common, under all four schedule kinds. *)
let gen_walker_case =
  QCheck.Gen.(
    int_range 1 4 >>= fun d ->
    array_size (return d) (int_range 1 4) >>= fun bounds ->
    int_range 1 4 >>= fun n ->
    array_size (return n) (pair (int_bound ((1 lsl d) - 1)) (oneofl Spec.[ Read; Write; Update ]))
    >>= fun raw ->
    let used = Array.fold_left (fun acc (mask, _) -> acc lor mask) 0 raw in
    let arrays =
      Array.mapi
        (fun j (mask, mode) ->
          let mask = if j = 0 then mask lor ((1 lsl d) - 1 - used) else mask in
          Spec.array_ref ~mode (Printf.sprintf "A%d" j)
            (List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init d Fun.id)))
        raw
    in
    let spec =
      Spec.create_exn ~name:"walk" ~loops:(Array.init d (Printf.sprintf "x%d")) ~bounds ~arrays
    in
    let tile = array_size (return d) (int_range 1 4) >|= Array.mapi (fun i v -> 1 + (v mod bounds.(i))) in
    oneof
      [
        return Schedules.Untiled;
        shuffle_l (List.init d Fun.id) >|= (fun p -> Schedules.Permuted (Array.of_list p));
        tile >|= (fun b -> Schedules.Tiled b);
        pair tile tile >|= (fun (a, b) -> Schedules.Nested [ Array.map2 min a b; Array.map2 max a b ]);
      ]
    >>= fun sched ->
    int_range 1 4 >>= fun line_words ->
    (* lines on both sides of the 2n elision threshold *)
    oneof [ int_range 1 24; int_range (-2) 2 >|= fun dl -> max 1 ((2 * n) + dl) ] >>= fun lines ->
    int_bound (line_words - 1) >>= fun spare ->
    return (spec, sched, line_words, (lines * line_words) + spare))

let print_walker_case (spec, sched, line_words, capacity) =
  Format.asprintf "%a / %s / line_words %d / capacity %d" Spec.pp spec
    (Schedules.description spec sched) line_words capacity

let arb_walker_case = QCheck.make ~print:print_walker_case gen_walker_case

(* Zero tolerance: the walker's statistics are those of the per-point
   replay, under both online policies. *)
let run_matches_reference (spec, sched, line_words, capacity) =
  let trace = reference_trace spec sched in
  List.for_all
    (fun policy ->
      (Executor.run ~line_words ~policy spec ~schedule:sched ~capacity).Executor.stats
      = Trace.simulate ~line_words ~policy ~capacity trace)
    [ Policy.Lru; Policy.Fifo ]

let walker_props =
  [
    QCheck.Test.make ~name:"row walker = per-point reference trace (LRU, FIFO)" ~count:1000
      arb_walker_case run_matches_reference;
    QCheck.Test.make ~name:"row walker = reference, innermost tile extent 1" ~count:500
      arb_walker_case (fun (spec, sched, line_words, capacity) ->
        (* Rows then run along an outer loop of the block. *)
        let unit_inner b = Array.mapi (fun i v -> if i = Array.length b - 1 then 1 else v) b in
        let sched =
          match sched with
          | Schedules.Tiled b -> Schedules.Tiled (unit_inner b)
          | Schedules.Nested (b :: outer) -> Schedules.Nested (unit_inner b :: outer)
          | s -> s
        in
        run_matches_reference (spec, sched, line_words, capacity));
    QCheck.Test.make ~name:"trace_of = per-point reference trace" ~count:300 arb_walker_case
      (fun (spec, sched, _, _) ->
        Executor.trace_of spec ~schedule:sched = reference_trace spec sched);
    QCheck.Test.make ~name:"run_hierarchy = word-by-word Hierarchy.access replay" ~count:600
      (QCheck.pair arb_walker_case (QCheck.int_range 1 64))
      (fun ((spec, sched, line_words, capacity), extra) ->
        let capacities = [| capacity; capacity + (extra * line_words) |] in
        List.for_all
          (fun policy ->
            let h = Hierarchy.create ~line_words ~policy ~capacities () in
            Array.iter
              (fun (a : Trace.access) -> Hierarchy.access h ~write:a.Trace.write a.Trace.addr)
              (reference_trace spec sched);
            Hierarchy.flush h;
            let r = Executor.run_hierarchy ~line_words ~policy spec ~schedule:sched ~capacities in
            r.Executor.hstats = Hierarchy.stats h
            && r.Executor.boundary_words = Hierarchy.traffic h)
          [ Policy.Lru; Policy.Fifo ]);
  ]

(* ------------------------------------------------------------------ *)
(* The row rule                                                       *)
(* ------------------------------------------------------------------ *)

(* The schedule order written out naively: the points of a box in
   lexicographic order (over [order], outermost first), and tiled
   schedules as the lexicographic walk over blocks, clipped at the
   bounds, one level inside the other. *)
let naive_points spec sched =
  let d = Spec.num_loops spec in
  let range lo hi = List.init (hi - lo) (fun t -> lo + t) in
  let box order lo hi =
    let rec go k p =
      if k = d then [ p ]
      else begin
        let i = order.(k) in
        List.concat_map
          (fun v ->
            let q = Array.copy p in
            q.(i) <- v;
            go (k + 1) q)
          (range lo.(i) hi.(i))
      end
    in
    go 0 (Array.copy lo)
  in
  let ident = Array.init d Fun.id and zero = Array.make d 0 in
  let rec blocks levels lo hi =
    match levels with
    | [] -> box ident lo hi
    | tile :: rest ->
      let counts = Array.init d (fun i -> (hi.(i) - lo.(i) + tile.(i) - 1) / tile.(i)) in
      List.concat_map
        (fun idx ->
          let blo = Array.init d (fun i -> lo.(i) + (idx.(i) * tile.(i))) in
          blocks rest blo (Array.init d (fun i -> min hi.(i) (blo.(i) + tile.(i)))))
        (box ident zero counts)
  in
  match sched with
  | Schedules.Untiled -> box ident zero spec.Spec.bounds
  | Schedules.Permuted p -> box p zero spec.Spec.bounds
  | Schedules.Tiled b -> blocks [ b ] zero spec.Spec.bounds
  | Schedules.Nested tiles -> blocks (List.rev tiles) zero spec.Spec.bounds

(* Every row of [iterate_rows], checked against the contract: [lo < hi]
   and [point.(inner) = lo] on entry. *)
let rows_of spec sched =
  let rows = ref [] in
  Schedules.iterate_rows spec sched (fun point inner lo hi ->
    if not (lo < hi && point.(inner) = lo) then Alcotest.fail "row contract";
    rows := (Array.copy point, inner, lo, hi) :: !rows);
  List.rev !rows

let unroll rows =
  List.concat_map
    (fun (p, inner, lo, hi) ->
      List.init (hi - lo) (fun t ->
        let q = Array.copy p in
        q.(inner) <- lo + t;
        q))
    rows

let gen_row_case =
  QCheck.Gen.(
    int_range 1 4 >>= fun d ->
    array_size (return d) (int_range 1 7) >>= fun bounds ->
    let spec =
      Spec.create_exn ~name:"rows" ~loops:(Array.init d (Printf.sprintf "x%d")) ~bounds
        ~arrays:[| Spec.array_ref ~mode:Spec.Update "A" (List.init d Fun.id) |]
    in
    (* Extents of 1 in the innermost loops are the case the rule is for;
       extents that do not divide the bound give clipped edge blocks. *)
    let tile =
      int_bound d >>= fun ones ->
      array_size (return d) (int_range 1 7) >|= fun raw ->
      Array.mapi (fun i v -> if i >= d - ones then 1 else 1 + (v mod bounds.(i))) raw
    in
    oneof
      [
        return Schedules.Untiled;
        shuffle_l (List.init d Fun.id) >|= (fun p -> Schedules.Permuted (Array.of_list p));
        tile >|= (fun b -> Schedules.Tiled b);
        pair tile tile >|= (fun (a, b) -> Schedules.Nested [ Array.map2 min a b; Array.map2 max a b ]);
      ]
    >|= fun sched -> (spec, sched))

let arb_row_case =
  QCheck.make
    ~print:(fun (s, sched) -> Format.asprintf "%a / %s" Spec.pp s (Schedules.description s sched))
    gen_row_case

let row_props =
  [
    QCheck.Test.make ~name:"iterate_rows and iterate = naive lexicographic tile walk" ~count:500
      arb_row_case (fun (spec, sched) ->
        let naive = naive_points spec sched in
        unroll (rows_of spec sched) = naive && collect spec sched = naive);
    QCheck.Test.make ~name:"rows run along the innermost loop that varies" ~count:500
      arb_row_case (fun (spec, sched) ->
        (* The expected row through a row's first point: the innermost
           loop (in nesting order) with more than one value in the
           point's block, spanning the block; the last loop if none.
           Nested blocks are left to the point-sequence property. *)
        let d = Spec.num_loops spec and bounds = spec.Spec.bounds in
        let expected p =
          let pick order span =
            let k = ref (d - 1) in
            while !k > 0 && (let lo, hi = span order.(!k) in hi - lo = 1) do
              decr k
            done;
            let lo, hi = span order.(!k) in
            Some (order.(!k), lo, hi)
          in
          match sched with
          | Schedules.Untiled -> pick (Array.init d Fun.id) (fun i -> (0, bounds.(i)))
          | Schedules.Permuted order -> pick order (fun i -> (0, bounds.(i)))
          | Schedules.Tiled b ->
            pick (Array.init d Fun.id) (fun i ->
              let o = p.(i) / b.(i) * b.(i) in
              (o, min bounds.(i) (o + b.(i))))
          | Schedules.Nested _ -> None
        in
        List.for_all
          (fun (p, inner, lo, hi) ->
            match expected p with None -> true | Some e -> e = (inner, lo, hi))
          (rows_of spec sched));
  ]

let test_outer_product_unit_inner_extent () =
  (* The Theorem-3 tile [152, 1] of outer_product 152x520 at m = 456:
     the innermost extent is 1, so each block is one row along x1 (520
     rows of 152 points, not 79,040 rows of one), the invariant b[j]'s
     touches are elided, and the statistics equal the per-point replay
     and the figures of the one-point-row walker. *)
  let spec = Kernels.outer_product ~m:152 ~n:520 in
  let sched = Schedules.Tiled [| 152; 1 |] and capacity = 456 in
  let rows = rows_of spec sched in
  Alcotest.(check int) "rows" 520 (List.length rows);
  Alcotest.(check bool) "rows along x1" true
    (List.for_all (fun (_, inner, lo, hi) -> inner = 0 && lo = 0 && hi = 152) rows);
  let r, elided = elided_by (fun () -> Executor.run spec ~schedule:sched ~capacity) in
  Alcotest.(check bool) (Printf.sprintf "elided %d > 0" elided) true (elided > 0);
  let reference = Trace.simulate ~policy:Policy.Lru ~capacity (reference_trace spec sched) in
  Alcotest.(check bool) "stats equal the per-point reference" true (r.Executor.stats = reference);
  Alcotest.(check int) "misses" 79712 r.Executor.stats.Cache.misses;
  Alcotest.(check int) "writebacks" 79040 r.Executor.stats.Cache.writebacks;
  Alcotest.(check int) "words moved" 158752 r.Executor.words_moved

let props =
  [
    QCheck.Test.make ~name:"every schedule visits each point exactly once" ~count:150
      arb_spec_sched (fun (spec, sched) ->
        let tbl = Hashtbl.create 64 in
        Schedules.iterate spec sched (fun p ->
          let key = Array.to_list p in
          Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key)));
        Hashtbl.length tbl = Spec.iteration_count spec
        && Hashtbl.fold (fun _ v acc -> acc && v = 1) tbl true);
    QCheck.Test.make ~name:"trace length formula" ~count:100 arb_spec_sched
      (fun (spec, sched) ->
        Array.length (Executor.trace_of spec ~schedule:sched) = Executor.trace_length spec);
    QCheck.Test.make ~name:"words moved >= compulsory" ~count:60 arb_spec_sched
      (fun (spec, sched) ->
        let r = Executor.run spec ~schedule:sched ~capacity:16 in
        r.Executor.words_moved >= Spec.total_array_words spec);
    QCheck.Test.make ~name:"schedule does not change infinite-cache traffic" ~count:60
      arb_spec_sched (fun (spec, sched) ->
        let big = 1 lsl 22 in
        let a = Executor.run spec ~schedule:sched ~capacity:big in
        let b = Executor.run spec ~schedule:Schedules.Untiled ~capacity:big in
        a.Executor.words_moved = b.Executor.words_moved);
  ]

let () =
  Alcotest.run "loopexec"
    [
      ( "layout",
        [
          Alcotest.test_case "dense and disjoint" `Quick test_layout_disjoint_and_dense;
          Alcotest.test_case "projection" `Quick test_layout_projection;
          Alcotest.test_case "reverse lookup" `Quick test_layout_reverse;
        ] );
      ( "schedules",
        [
          Alcotest.test_case "untiled order" `Quick test_untiled_order;
          Alcotest.test_case "tiled order" `Quick test_tiled_order;
          Alcotest.test_case "clipping" `Quick test_tiled_clipping;
          Alcotest.test_case "validation" `Quick test_schedule_validation;
          Alcotest.test_case "classic tile" `Quick test_classic_tile;
        ] );
      ( "executor",
        [
          Alcotest.test_case "trace shape" `Quick test_trace_shape;
          Alcotest.test_case "infinite cache" `Quick test_infinite_cache_traffic;
          Alcotest.test_case "tiled beats untiled" `Quick test_tiled_beats_untiled;
          Alcotest.test_case "respects lower bound" `Quick test_measured_respects_lower_bound;
          Alcotest.test_case "attains bound" `Quick test_optimal_tiling_attains_bound;
          Alcotest.test_case "matvec traffic" `Quick test_matvec_traffic_near_matrix_size;
          Alcotest.test_case "OPT policy" `Quick test_opt_policy_via_executor;
        ] );
      ( "row-walker",
        [
          Alcotest.test_case "elision fires for LRU" `Quick test_elision_fires_for_lru;
          Alcotest.test_case "no elision for FIFO or below 2n lines" `Quick
            test_elision_never_for_fifo_or_small_caches;
        ]
        @ List.map QCheck_alcotest.to_alcotest walker_props );
      ( "nested-permuted",
        [
          Alcotest.test_case "permuted order" `Quick test_permuted_order;
          Alcotest.test_case "permuted validation" `Quick test_permuted_validation;
          Alcotest.test_case "permuted traffic" `Quick test_permuted_changes_traffic;
          Alcotest.test_case "nested validation" `Quick test_nested_validation;
          Alcotest.test_case "nested malformed stacks" `Quick test_nested_malformed;
          Alcotest.test_case "nested visits once" `Quick test_nested_visits_once;
          Alcotest.test_case "nested block order" `Quick test_nested_respects_outer_blocks;
          Alcotest.test_case "nested tiling construction" `Quick test_nested_tiling_construction;
          Alcotest.test_case "hierarchy: nested wins" `Quick test_hierarchy_execution_nested_wins;
          Alcotest.test_case "hierarchy stats shape" `Quick test_hierarchy_execution_stats_shape;
        ] );
      ( "row-rule",
        Alcotest.test_case "outer_product [152,1] rows along x1" `Quick
          test_outer_product_unit_inner_extent
        :: List.map QCheck_alcotest.to_alcotest row_props );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
    ]

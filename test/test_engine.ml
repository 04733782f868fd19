(* Tests for the unified analysis pipeline (Pipeline): request/report
   plumbing, the canonicalized memo cache, and the domain-parallel sweep
   pool. The determinism tests force jobs > 1 explicitly — CI boxes may
   report a single core, which would otherwise make the parallel path
   degenerate to the sequential one. *)

let report_text (r : Report.t) = Format.asprintf "%a" Report.pp r

(* Every request in this file is valid: a typed error fails the test. *)
let ok = function
  | Ok r -> r
  | Error e -> Alcotest.failf "unexpected error: %s" (Engine_error.to_string e)

let mk_requests () =
  let sims = Pipeline.[ sim Optimal; sim Classic; sim Untiled ] in
  List.concat_map
    (fun spec ->
      List.map (fun m -> Pipeline.request ~sims ~shared:true spec ~m) [ 64; 256 ])
    [
      Kernels.matmul ~l1:24 ~l2:24 ~l3:24;
      Kernels.matmul ~l1:64 ~l2:64 ~l3:4;
      Kernels.nbody ~l1:96 ~l2:96;
      Kernels.pointwise_conv ~b:2 ~c:4 ~k:8 ~w:7 ~h:7;
      Kernels.outer_product ~m:48 ~n:48;
    ]

(* ------------------------------------------------------------------ *)
(* Memo cache                                                         *)
(* ------------------------------------------------------------------ *)

let test_second_request_hits_cache () =
  Pipeline.reset_caches ();
  let spec = Kernels.matmul ~l1:32 ~l2:32 ~l3:32 in
  let r1 = ok (Pipeline.run_checked (Pipeline.request spec ~m:256)) in
  Alcotest.(check bool) "first analysis is computed" false r1.Report.from_cache;
  let hits_before, _ = Pipeline.cache_stats () in
  let r2 = ok (Pipeline.run_checked (Pipeline.request spec ~m:256)) in
  Alcotest.(check bool) "second identical request served from cache" true
    r2.Report.from_cache;
  let hits_after, _ = Pipeline.cache_stats () in
  Alcotest.(check bool) "cache hit counter advanced" true (hits_after > hits_before);
  (* cached and fresh reports agree on everything the renderer shows *)
  Alcotest.(check string) "identical rendering" (report_text r1) (report_text r2)

let test_cache_ignores_names () =
  (* The key canonicalizes away loop/array names: a renamed matmul with
     the same bounds and supports must share the cache line. *)
  Pipeline.reset_caches ();
  let a = Parser.parse_exn "i = 16, j = 16, k = 16 : C[i,k] += A[i,j] * B[j,k]" in
  let b = Parser.parse_exn "p = 16, q = 16, r = 16 : Z[p,r] += X[p,q] * Y[q,r]" in
  ignore (ok (Pipeline.run_checked (Pipeline.request a ~m:64)));
  let hits_before, _ = Pipeline.cache_stats () in
  let rb = ok (Pipeline.run_checked (Pipeline.request b ~m:64)) in
  Alcotest.(check bool) "renamed spec hits the same entry" true rb.Report.from_cache;
  let hits_after, _ = Pipeline.cache_stats () in
  Alcotest.(check bool) "hit counted" true (hits_after > hits_before)

let test_cache_distinguishes_m () =
  (* beta alone does not determine the integer tile: m is in the key. *)
  Pipeline.reset_caches ();
  let spec = Kernels.matmul ~l1:4 ~l2:4 ~l3:4 in
  ignore (ok (Pipeline.run_checked (Pipeline.request spec ~m:16)));
  let r = ok (Pipeline.run_checked (Pipeline.request spec ~m:256)) in
  Alcotest.(check bool) "different m misses" false r.Report.from_cache

let test_memoized_stages_agree () =
  Pipeline.reset_caches ();
  let spec = Kernels.pointwise_conv ~b:2 ~c:4 ~k:8 ~w:7 ~h:7 in
  let m = 128 in
  let beta = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
  Alcotest.(check bool) "solve_lp = Tiling.solve_lp" true
    (Rat.equal (Pipeline.solve_lp spec ~beta).Tiling.value
       (Tiling.solve_lp spec ~beta).Tiling.value);
  Alcotest.(check (array int)) "tile_shared = Tiling.optimal_shared"
    (Tiling.optimal_shared spec ~m) (Pipeline.tile_shared spec ~m);
  (* The engine canonicalizes to the lex-max optimum (so the plan fast
     path and the LP path agree bit-for-bit); of_lambda of that lambda
     is the pinned tile contract. *)
  Alcotest.(check (array int)) "tile = Tiling.of_lambda (lex-max)"
    (Tiling.of_lambda spec ~m (Tiling.solve_lp_lexmax spec ~beta).Tiling.lambda)
    (Pipeline.tile spec ~m)

(* Once the shape's plan is installed, an analysis at a fresh
   (bounds, m) is pure arithmetic: the plan answers lambda, and its
   vertex minimum prices k_hat, s_HBL and the witness Q. *)
let test_plan_served_analysis_solves_no_lp () =
  Pipeline.reset_caches ();
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:4 in
  (match Pipeline.plan_of spec with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "plan refused: %s" (Engine_error.to_string e));
  let s0 = Obs.snapshot () in
  let fresh = Spec.with_bounds spec [| 96; 40; 3 |] in
  let r = ok (Pipeline.run_checked (Pipeline.request fresh ~m:200)) in
  let d = Obs.diff s0 (Obs.snapshot ()) in
  let counter n = Option.value ~default:0 (List.assoc_opt n d.Obs.scounters) in
  Alcotest.(check bool) "fresh analysis" false r.Report.from_cache;
  Alcotest.(check int) "no simplex solves" 0 (counter "simplex.solves");
  Pipeline.reset_caches ()

(* ------------------------------------------------------------------ *)
(* Parallel sweep                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_sweep_matches_sequential () =
  Pipeline.reset_caches ();
  let sequential = List.map ok (Pipeline.sweep_checked ~jobs:1 (mk_requests ())) in
  Pipeline.reset_caches ();
  let parallel = List.map ok (Pipeline.sweep_checked ~jobs:4 (mk_requests ())) in
  Alcotest.(check int) "same number of reports" (List.length sequential)
    (List.length parallel);
  List.iteri
    (fun i (s, p) ->
      Alcotest.(check string)
        (Printf.sprintf "report %d byte-identical" i)
        (report_text s) (report_text p))
    (List.combine sequential parallel);
  (* the JSON rendering (sans timings) must agree too *)
  Alcotest.(check string) "identical JSON"
    (Report.json_of_reports ~timings:false sequential)
    (Report.json_of_reports ~timings:false parallel)

let test_parallel_sweep_with_warm_cache () =
  (* Concurrent workers racing on the same memo entries must still
     produce the sequential answer. Duplicate kernels maximize races. *)
  Pipeline.reset_caches ();
  let reqs = mk_requests () @ mk_requests () in
  let seq = List.map (fun r -> report_text (ok r)) (Pipeline.sweep_checked ~jobs:1 reqs) in
  Pipeline.reset_caches ();
  let par = List.map (fun r -> report_text (ok r)) (Pipeline.sweep_checked ~jobs:3 reqs) in
  Alcotest.(check (list string)) "duplicated requests, warm cache" seq par

let test_sweep_order_is_input_order () =
  Pipeline.reset_caches ();
  let specs =
    [ Kernels.matmul ~l1:8 ~l2:8 ~l3:8; Kernels.nbody ~l1:16 ~l2:16;
      Kernels.outer_product ~m:12 ~n:12 ]
  in
  let reports =
    List.map ok
      (Pipeline.sweep_checked ~jobs:4
         (List.concat_map
            (fun spec -> List.map (fun m -> Pipeline.request spec ~m) [ 16; 64 ])
            specs))
  in
  let got = List.map (fun (r : Report.t) -> (r.Report.spec.Spec.name, r.Report.m)) reports in
  let expected =
    List.concat_map (fun s -> [ (s.Spec.name, 16); (s.Spec.name, 64) ]) specs
  in
  Alcotest.(check (list (pair string int))) "kernels outermost, ms inner" expected got

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let test_pool_map_order_and_values () =
  let xs = Array.init 100 (fun i -> i) in
  let doubled = Pool.map ~jobs:4 (fun x -> 2 * x) xs in
  Alcotest.(check (array int)) "order preserved" (Array.map (fun x -> 2 * x) xs) doubled;
  Alcotest.(check (list int)) "map_list too" [ 2; 4; 6 ]
    (Pool.map_list ~jobs:2 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_pool_propagates_exceptions () =
  Alcotest.check_raises "worker exception resurfaces" (Failure "boom") (fun () ->
    ignore (Pool.map ~jobs:3 (fun x -> if x = 17 then failwith "boom" else x)
              (Array.init 64 (fun i -> i))))

let test_pool_jobs_env_override () =
  Unix.putenv "PROJTILE_JOBS" "7";
  let n = Pool.default_jobs () in
  Unix.putenv "PROJTILE_JOBS" "not-a-number";
  let fallback = Pool.default_jobs () in
  Unix.putenv "PROJTILE_JOBS" "";
  Alcotest.(check int) "env override respected" 7 n;
  Alcotest.(check bool) "garbage falls back to >= 1" true (fallback >= 1)

let test_pool_validate_jobs () =
  let check label s expect =
    Alcotest.(check (option int)) label expect (Pool.validate_jobs s)
  in
  check "positive" "7" (Some 7);
  check "trimmed" " 3 " (Some 3);
  check "zero rejected" "0" None;
  check "negative rejected" "-3" None;
  check "garbage rejected" "abc" None;
  check "empty rejected" "" None;
  check "float rejected" "2.5" None

(* ------------------------------------------------------------------ *)
(* Staged scheduling and worker instrumentation                       *)
(* ------------------------------------------------------------------ *)

let test_pool_staged_values_and_order () =
  (* A mixed workload: every third task carries a second stage (the
     simulation-tail shape). Values and order must match the plain map
     whatever the scheduler does, on the split scheduler and the
     sequential path. *)
  let xs = List.init 50 Fun.id in
  let classify i = if i mod 3 = 0 then Pool.Simulation else Pool.Analytic in
  let f i =
    if i mod 3 = 0 then Pool.More (fun () -> (i * 10) + 1) else Pool.Done (i * 10)
  in
  let expect = List.map (fun i -> if i mod 3 = 0 then (i * 10) + 1 else i * 10) xs in
  Alcotest.(check (list int)) "split scheduler" expect
    (Pool.map_staged_list ~jobs:4 ~classify f xs);
  Alcotest.(check (list int)) "sequential path" expect
    (Pool.map_staged_list ~jobs:1 ~classify f xs)

let test_pool_staged_continuation_exception () =
  Alcotest.check_raises "exception from the second stage resurfaces"
    (Failure "boom2") (fun () ->
      ignore
        (Pool.map_staged_list ~jobs:3
           ~classify:(fun _ -> Pool.Analytic)
           (fun i ->
             if i = 7 then Pool.More (fun () -> failwith "boom2") else Pool.Done i)
           (List.init 32 Fun.id)))

let test_pool_worker_instrumentation () =
  (* Regression: these were dead before the work-stealing rewrite — the
     spawn/busy/idle accounting only ran on a code path that a 1-core
     host never took. Forcing jobs:3 must light all of it up. *)
  let s0 = Obs.snapshot () in
  let out = Pool.map ~jobs:3 (fun x -> x * x) (Array.init 40 Fun.id) in
  let d = Obs.diff s0 (Obs.snapshot ()) in
  let counter n = Option.value ~default:0 (List.assoc_opt n d.Obs.scounters) in
  let timer_calls n =
    match List.assoc_opt n d.Obs.stimers with Some t -> t.Obs.tcalls | None -> 0
  in
  Alcotest.(check (array int)) "results correct" (Array.init 40 (fun i -> i * i)) out;
  Alcotest.(check int) "jobs - 1 domains spawned" 2 (counter "pool.domains_spawned");
  Alcotest.(check bool) "worker busy time measured" true
    (timer_calls "pool.worker_busy" > 0);
  Alcotest.(check bool) "worker idle time measured" true
    (timer_calls "pool.worker_idle" > 0);
  Alcotest.(check int) "queue wait recorded per task" 40 (timer_calls "pool.queue_wait");
  Alcotest.(check int) "analytic-class wait recorded per task" 40
    (timer_calls "pool.queue_wait.analytic")

(* ------------------------------------------------------------------ *)
(* Sharded memo under concurrent domains                              *)
(* ------------------------------------------------------------------ *)

let test_memo_sharded_domain_stress () =
  (* N domains hammer one sharded table with overlapping keys: no update
     may be lost (every find_or_add returns the key's own value), the
     final table holds exactly the distinct keys, and the hit/miss
     accounting stays exact under races. *)
  let memo : int Memo.t = Memo.create ~shards:8 () in
  let keys = 64 and per_domain = 2000 and domains = 4 in
  let value_of k = (k * 7919) + 13 in
  let bad = Atomic.make 0 in
  let worker seed () =
    let st = Random.State.make [| seed; 0x5eed |] in
    for _ = 1 to per_domain do
      let k = Random.State.int st keys in
      let v = Memo.find_or_add memo (Printf.sprintf "key-%03d" k) (fun () -> value_of k) in
      if v <> value_of k then Atomic.incr bad
    done
  in
  let spawned = List.init (domains - 1) (fun i -> Domain.spawn (worker (i + 1))) in
  worker 0 ();
  List.iter Domain.join spawned;
  Alcotest.(check int) "no lost or cross-wired updates" 0 (Atomic.get bad);
  (* a final sequential sweep fills in any key the random walks missed *)
  for k = 0 to keys - 1 do
    ignore (Memo.find_or_add memo (Printf.sprintf "key-%03d" k) (fun () -> value_of k))
  done;
  Alcotest.(check int) "distinct keys" keys (Memo.length memo);
  Alcotest.(check int) "accounting exact" ((domains * per_domain) + keys)
    (Memo.hits memo + Memo.misses memo);
  let alist = Memo.to_alist memo in
  Alcotest.(check int) "to_alist covers the table" keys (List.length alist);
  Alcotest.(check bool) "to_alist sorted by key" true
    (List.sort compare alist = alist);
  List.iter
    (fun (key, v) ->
      Alcotest.(check int) (key ^ " holds its own value")
        (value_of (int_of_string (String.sub key 4 3))) v)
    alist

(* [n] domains that each wait at a latch until all have started, then
   call [f i]; returns the results in domain order. *)
let race n f =
  let started = Atomic.make 0 in
  let go i () =
    Atomic.incr started;
    while Atomic.get started < n do
      Domain.cpu_relax ()
    done;
    f i
  in
  let spawned = List.init (n - 1) (fun i -> Domain.spawn (go (i + 1))) in
  let first = go 0 () in
  first :: List.map Domain.join spawned

let test_memo_single_flight () =
  (* N domains miss on one key at once: one computes, the rest wait for
     its value, and every caller gets it *)
  let memo : int Memo.t = Memo.create () in
  let n = 4 in
  let computes = Atomic.make 0 and arrived = Atomic.make 0 in
  let compute () =
    Atomic.incr computes;
    (* stay in flight until every domain has asked for the key *)
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done;
    Unix.sleepf 0.01;
    42
  in
  let got =
    race n (fun _ ->
      Atomic.incr arrived;
      Memo.find_or_add memo "shape" compute)
  in
  Alcotest.(check (list int)) "every caller gets the value" (List.init n (fun _ -> 42)) got;
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  Alcotest.(check int) "one miss" 1 (Memo.misses memo);
  Alcotest.(check int) "the waiters count as hits" (n - 1) (Memo.hits memo)

let test_memo_single_flight_failure () =
  (* the first computation raises: its caller gets the exception, the
     key is not poisoned, and one waiter computes it afresh *)
  let memo : int Memo.t = Memo.create () in
  let n = 4 in
  let computes = Atomic.make 0 and arrived = Atomic.make 0 in
  let compute () =
    let k = Atomic.fetch_and_add computes 1 in
    while Atomic.get arrived < n do
      Domain.cpu_relax ()
    done;
    if k = 0 then begin
      Unix.sleepf 0.01;
      failwith "first compute fails"
    end
    else 7
  in
  let got =
    race n (fun _ ->
      Atomic.incr arrived;
      match Memo.find_or_add memo "shape" compute with
      | v -> Ok v
      | exception Failure msg -> Error msg)
  in
  Alcotest.(check int) "one caller saw the failure" 1
    (List.length (List.filter Result.is_error got));
  Alcotest.(check int) "the others got the retried value" (n - 1)
    (List.length (List.filter (( = ) (Ok 7)) got));
  Alcotest.(check int) "failed once, computed once more" 2 (Atomic.get computes);
  Alcotest.(check (option int)) "the value is cached" (Some 7) (Memo.find_opt memo "shape")

let prop_memo_sharding_invisible =
  (* Whatever the shard count (1 rounds up from anything), the table
     behaves like one hashtable: add is first-writer-wins and find_opt
     sees exactly the surviving writes. *)
  QCheck.Test.make ~name:"sharding is semantically invisible" ~count:100
    QCheck.(
      pair (int_range 1 32)
        (small_list (pair (int_range 0 15) small_int)))
    (fun (shards, ops) ->
      let memo : int Memo.t = Memo.create ~shards () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (k, v) ->
          let key = Printf.sprintf "k%02d" k in
          Memo.add memo key v;
          if not (Hashtbl.mem model key) then Hashtbl.add model key v)
        ops;
      Hashtbl.fold
        (fun key v acc -> acc && Memo.find_opt memo key = Some v)
        model
        (Memo.length memo = Hashtbl.length model))

(* ------------------------------------------------------------------ *)
(* Cache persistence                                                  *)
(* ------------------------------------------------------------------ *)

let fill_caches () =
  List.iter
    (fun (spec, m) ->
      ignore (ok (Pipeline.run_checked (Pipeline.request ~shared:true spec ~m))))
    [
      (Kernels.matmul ~l1:24 ~l2:24 ~l3:24, 64);
      (Kernels.matmul ~l1:24 ~l2:24 ~l3:24, 256);
      (Kernels.matvec ~m:64 ~n:64, 64);
      (Kernels.nbody ~l1:48 ~l2:48, 128);
    ];
  ignore (Pipeline.hierarchy (Kernels.matmul ~l1:16 ~l2:16 ~l3:16) ~capacities:[| 32; 256 |])

(* Refill from restored caches, returning the counters that show what
   had to be recomputed: LP-memo misses, plan compiles and shared-tile
   search nodes. A restore that stopped installing plans or tiles makes
   one of them non-zero. *)
let refill_after_restore () =
  let s0 = Obs.snapshot () in
  fill_caches ();
  let d = Obs.diff s0 (Obs.snapshot ()) in
  let counter n = Option.value ~default:0 (List.assoc_opt n d.Obs.scounters) in
  let compiles =
    match List.assoc_opt "plan.compile" d.Obs.stimers with Some t -> t.Obs.tcalls | None -> 0
  in
  Alcotest.(check int) "no LP misses after restore" 0 (counter "memo.lp.misses");
  Alcotest.(check int) "no plan compiles after restore" 0 compiles;
  Alcotest.(check int) "no shared-tile search after restore" 0 (counter "tiling.search.nodes")

let test_cache_snapshot_roundtrip () =
  Pipeline.reset_caches ();
  fill_caches ();
  let snap1 = Pipeline.cache_snapshot () in
  Pipeline.reset_caches ();
  (match Pipeline.cache_restore snap1 with
  | Error msg -> Alcotest.failf "restore failed: %s" msg
  | Ok (loaded, rejected) ->
    Alcotest.(check bool) "entries restored" true (loaded > 0);
    Alcotest.(check int) "nothing rejected" 0 rejected);
  (* snapshot -> restore -> snapshot is byte-identical: entries are
     written in sorted key order with exact rationals, so the cycle is
     lossless and the on-disk file is deterministic. *)
  Alcotest.(check string) "snapshot byte-stable across restore" snap1
    (Pipeline.cache_snapshot ());
  (* a restored cache actually serves: the same sweep again compiles no
     plan and searches no tile *)
  refill_after_restore ();
  Pipeline.reset_caches ()

let test_cache_restore_tolerates_corruption () =
  Pipeline.reset_caches ();
  (match Pipeline.cache_restore "not json at all {" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ());
  (match Pipeline.cache_restore "{\"v\":99,\"lp\":[]}" with
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error _ -> ());
  (* Per-entry damage must not poison the rest: the keyless shared entry
     and the shared tile past its loop bound are rejected individually,
     the good nested entry loads, and the "lp" section (no longer read)
     counts as neither. *)
  let mixed =
    "{\"v\":1,"
    ^ "\"lp\":[{\"k\":\"K1\",\"lambda\":[\"1/2\"],\"value\":\"bogus\",\"dual\":[\"0\"]}],"
    ^ "\"shared\":[{\"t\":[4,4]},{\"k\":\"L=48,48;A=r:0|r:1|u:0;b=240743/301739,240743/301739;m=128\",\"t\":[1,49]}],"
    ^ "\"nested\":[{\"k\":\"L=16,16,16;A=r:0,1|r:1,2|u:0,2;ms=32,256\",\"ts\":[[2,2,4],[8,8,8]]}],"
    ^ "\"plans\":[]}"
  in
  (match Pipeline.cache_restore mixed with
  | Error msg -> Alcotest.failf "mixed snapshot refused outright: %s" msg
  | Ok (loaded, rejected) ->
    Alcotest.(check int) "good entry loaded" 1 loaded;
    Alcotest.(check int) "damaged entries rejected" 2 rejected);
  Pipeline.reset_caches ()

(* Restored tiles are checked against the spec their key names. The
   matmul m = 64 tile edited to [0,8,1] used to be installed and then
   failed every optimal simulation of that request with invalid_spec. *)
let test_cache_restore_rejects_poisoned_tiles () =
  Pipeline.reset_caches ();
  fill_caches ();
  let snap = Pipeline.cache_snapshot () in
  let replace ~sub ~by text =
    match Astring.String.cut ~sep:sub text with
    | Some (a, b) -> a ^ by ^ b
    | None -> Alcotest.failf "fixture lacks %s" sub
  in
  let mm64 = "m=64\",\"t\":[4,8,1]" in
  let nested = "\"ts\":[[2,2,4],[8,8,8]]" in
  List.iter
    (fun (label, poisoned) ->
      Pipeline.reset_caches ();
      match Pipeline.cache_restore poisoned with
      | Error msg -> Alcotest.failf "%s: refused outright: %s" label msg
      | Ok (_, rejected) -> Alcotest.(check int) (label ^ ": one entry rejected") 1 rejected)
    [
      ("zero extent", replace ~sub:mm64 ~by:"m=64\",\"t\":[0,8,1]" snap);
      ("short tile", replace ~sub:mm64 ~by:"m=64\",\"t\":[4,8]" snap);
      ("past the bound", replace ~sub:mm64 ~by:"m=64\",\"t\":[25,8,1]" snap);
      ("over the capacity", replace ~sub:mm64 ~by:"m=64\",\"t\":[8,8,8]" snap);
      ("key with another m", replace ~sub:mm64 ~by:"m=640\",\"t\":[4,8,1]" snap);
      ("nested shrinking outward", replace ~sub:nested ~by:"\"ts\":[[2,2,4],[2,2,2]]" snap);
      ("nested over its level", replace ~sub:nested ~by:"\"ts\":[[2,2,4],[16,16,16]]" snap);
      ("nested level missing", replace ~sub:nested ~by:"\"ts\":[[2,2,4]]" snap);
      ("nested ladder reversed", replace ~sub:"ms=32,256" ~by:"ms=256,32" snap);
    ];
  (* the zero-extent snapshot again: the request it poisoned now simulates,
     and the drain writes the recomputed tile back, not the edited one *)
  Pipeline.reset_caches ();
  ignore (Pipeline.cache_restore (replace ~sub:mm64 ~by:"m=64\",\"t\":[0,8,1]" snap));
  let r =
    ok
      (Pipeline.run_checked
         (Pipeline.request ~sims:Pipeline.[ sim Optimal ] (Kernels.matmul ~l1:24 ~l2:24 ~l3:24) ~m:64))
  in
  Alcotest.(check (option (array int))) "recomputed shared tile" (Some [| 4; 8; 1 |]) r.Report.tile_shared;
  Alcotest.(check bool) "drain saves the good tile" true
    (Astring.String.is_infix ~affix:mm64 (Pipeline.cache_snapshot ()));
  Pipeline.reset_caches ()

(* Truncated at any byte, a snapshot or plan bundle is an Error or a
   partial load, never an exception. *)
let test_cache_restore_truncated () =
  let golden =
    In_channel.with_open_bin "golden/cache_snapshot_with_basis.json" In_channel.input_all
  in
  let bundle =
    Pipeline.cache_snapshot ~plans:(List.map (fun (_, spec) -> Tiling_plan.compile spec) (Kernels.all ())) ()
  in
  List.iter
    (fun (label, doc) ->
      for len = 0 to String.length doc - 1 do
        Pipeline.reset_caches ();
        match Pipeline.cache_restore (String.sub doc 0 len) with
        | Ok _ | Error _ -> ()
        | exception e -> Alcotest.failf "%s cut at byte %d raised %s" label len (Printexc.to_string e)
      done)
    [ ("golden snapshot", golden); ("compile --all bundle", bundle) ];
  Pipeline.reset_caches ()

(* A snapshot written before the warm-start basis memo was removed: the
   same caches [fill_caches] builds, plus a "basis" section. Every lp,
   shared, nested and plan entry must load; the basis entries are an
   unknown section now, skipped rather than counted as rejected. The
   re-snapshot is the old file minus that section, byte for byte. *)
let test_cache_restore_snapshot_with_basis () =
  let old = In_channel.with_open_bin "golden/cache_snapshot_with_basis.json" In_channel.input_all in
  let json = match Jsonlite.parse old with Ok j -> j | Error msg -> Alcotest.fail msg in
  let count name = List.length (Option.get (Jsonlite.list_member name json)) in
  Alcotest.(check bool) "fixture carries basis entries" true (count "basis" > 0);
  Pipeline.reset_caches ();
  (match Pipeline.cache_restore old with
  | Error msg -> Alcotest.failf "restore failed: %s" msg
  | Ok (loaded, rejected) ->
    Alcotest.(check int) "every shared/nested/plan entry loaded"
      (count "shared" + count "nested" + count "plans")
      loaded;
    Alcotest.(check int) "lp and basis entries not rejected" 0 rejected);
  let lp_start = Astring.String.find_sub ~sub:",\"lp\":[" old |> Option.get in
  let lp_end = Astring.String.find_sub ~start:lp_start ~sub:",\"shared\":[" old |> Option.get in
  let without_lp_and_basis =
    String.sub old 0 lp_start ^ String.sub old lp_end (String.length old - lp_end)
  in
  Alcotest.(check string) "re-snapshot = old snapshot minus its lp and basis sections"
    without_lp_and_basis (Pipeline.cache_snapshot ());
  refill_after_restore ();
  Pipeline.reset_caches ()

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let test_report_fields_and_sims () =
  Pipeline.reset_caches ();
  let spec = Kernels.matmul ~l1:16 ~l2:16 ~l3:16 in
  let r =
    ok
      (Pipeline.run_checked
         (Pipeline.request ~shared:true
            ~sims:Pipeline.[ sim Optimal; sim ~policy:Policy.Opt Untiled ]
            spec ~m:64))
  in
  Alcotest.(check int) "two simulations" 2 (List.length r.Report.sims);
  Alcotest.(check bool) "shared tile present" true (r.Report.tile_shared <> None);
  Alcotest.(check bool) "tile feasible (paper model)" true
    (Tiling.is_feasible spec ~m:64 r.Report.tile);
  let opt = List.nth r.Report.sims 1 in
  Alcotest.(check bool) "OPT policy recorded" true (opt.Report.policy = Policy.Opt);
  List.iter
    (fun (s : Report.sim) ->
      Alcotest.(check bool) "words vs bound ratio is finite" true
        (Float.is_finite s.Report.ratio && s.Report.ratio > 0.0))
    r.Report.sims;
  Alcotest.(check bool) "timings recorded for all three stages" true
    (List.map fst r.Report.timings = [ "analysis"; "shared_tile"; "simulate" ])

let test_report_json_shape () =
  Pipeline.reset_caches ();
  let spec = Kernels.matvec ~m:32 ~n:32 in
  let sims = [ Pipeline.sim Pipeline.Untiled ] in
  let r = ok (Pipeline.run_checked (Pipeline.request ~sims spec ~m:64)) in
  let j = Report.to_json r in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "json mentions %s" frag) true
        (Astring.String.is_infix ~affix:frag j))
    [ "\"kernel\""; "\"m\":64"; "\"lower_bound_words\""; "\"lambda\""; "\"tile\"";
      "\"simulations\""; "\"words_moved\""; "\"policy\""; "\"k_hat\"" ];
  Alcotest.(check bool) "timings by default" true
    (Astring.String.is_infix ~affix:"timings" j);
  Alcotest.(check bool) "timings excluded on demand" false
    (Astring.String.is_infix ~affix:"timings" (Report.to_json ~timings:false r));
  (* renderer never emits unescaped newlines inside strings: crude but
     effective structural check — the JSON must balance braces/brackets *)
  let depth = ref 0 in
  String.iter
    (fun c ->
      (match c with
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | _ -> ());
      if !depth < 0 then Alcotest.fail "unbalanced JSON")
    j;
  Alcotest.(check int) "balanced JSON" 0 !depth

let test_hierarchy_report () =
  Pipeline.reset_caches ();
  let spec = Kernels.matmul ~l1:16 ~l2:16 ~l3:16 in
  let h = Pipeline.hierarchy spec ~capacities:[| 32; 256 |] in
  Alcotest.(check int) "two levels of tiles" 2 (List.length h.Pipeline.htiles);
  Alcotest.(check int) "two boundary measurements" 2
    (Array.length h.Pipeline.hresult.Executor.boundary_words);
  (* second call is served by the nested-tile memo table *)
  let hits_before, _ = Pipeline.cache_stats () in
  ignore (Pipeline.hierarchy spec ~capacities:[| 32; 256 |]);
  let hits_after, _ = Pipeline.cache_stats () in
  Alcotest.(check bool) "nested tiles memoized" true (hits_after > hits_before)

let test_hierarchy_refuses_oversized_kernel () =
  (* the same iteration limit run_checked applies to simulations, raised
     as the typed error before any tiling or simulation work *)
  let spec = Kernels.matmul ~l1:4096 ~l2:4096 ~l3:4096 in
  match Pipeline.hierarchy spec ~capacities:[| 512; 16384 |] with
  | _ -> Alcotest.fail "a 4096^3 kernel was simulated"
  | exception Engine_error.Error (Engine_error.Kernel_too_large _ as e) ->
    Alcotest.(check string) "code" "kernel_too_large" (Engine_error.code e);
    Alcotest.(check int) "exit" 5 (Engine_error.exit_code e)

let test_partition_checked () =
  Pipeline.reset_caches ();
  let spec = Kernels.matmul ~l1:64 ~l2:64 ~l3:64 in
  (match Pipeline.partition_checked spec ~p:64 ~m_local:4096 ~net:Partition_solve.Words with
  | Error e -> Alcotest.failf "valid partition failed: %s" (Engine_error.to_string e)
  | Ok sol ->
    Alcotest.(check (array int)) "grid" [| 4; 4; 4 |] sol.Partition_solve.grid;
    (* the second identical request is served from the partition memo *)
    let hits_before, _ = Pipeline.cache_stats () in
    (match Pipeline.partition_checked spec ~p:64 ~m_local:4096 ~net:Partition_solve.Words with
    | Ok sol2 ->
      Alcotest.(check string) "memoized answer identical"
        (Partition_solve.to_json sol) (Partition_solve.to_json sol2)
    | Error e -> Alcotest.failf "memoized request failed: %s" (Engine_error.to_string e));
    let hits_after, _ = Pipeline.cache_stats () in
    Alcotest.(check bool) "partition memo hit" true (hits_after > hits_before));
  (* typed refusals, each with its stable wire code and exit code *)
  (match Pipeline.partition_checked (Kernels.nbody ~l1:7 ~l2:7) ~p:11 ~m_local:64
           ~net:Partition_solve.Words with
  | Error (Engine_error.Unfactorable_p { p = 11 } as e) ->
    Alcotest.(check string) "code" "unfactorable_p" (Engine_error.code e);
    Alcotest.(check int) "exit" 12 (Engine_error.exit_code e)
  | Error e -> Alcotest.failf "wanted unfactorable_p, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "p=11 accepted on a 7x7 nest");
  (match Pipeline.partition_checked spec ~p:8 ~m_local:64
           ~net:(Partition_solve.Alpha_beta { alpha = Rat.minus_one; beta = Rat.one }) with
  | Error (Engine_error.Network_model_invalid _ as e) ->
    Alcotest.(check string) "code" "network_model_invalid" (Engine_error.code e);
    Alcotest.(check int) "exit" 13 (Engine_error.exit_code e)
  | Error e -> Alcotest.failf "wanted network_model_invalid, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "negative alpha accepted");
  (match Pipeline.partition_checked spec ~p:0 ~m_local:64 ~net:Partition_solve.Words with
  | Error (Engine_error.Invalid_request _) -> ()
  | Error e -> Alcotest.failf "wanted invalid_request, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "p=0 accepted");
  match Pipeline.partition_checked ~deadline:0.0 spec ~p:4 ~m_local:64 ~net:Partition_solve.Words with
  | Error (Engine_error.Deadline_exceeded _) -> ()
  | Error e -> Alcotest.failf "wanted deadline_exceeded, got %s" (Engine_error.code e)
  | Ok _ -> Alcotest.fail "expired deadline accepted"

let test_partition_validate () =
  (* the tentpole loop-closer: run the P-processor schedule on the Pool
     (one domain per distinct block shape) and check the simulated
     per-processor maximum equals the model's words exactly — on a
     ragged nest whose remainder blocks differ from the full ones *)
  let spec = Kernels.matmul ~l1:10 ~l2:8 ~l3:8 in
  match Pipeline.partition_checked spec ~p:6 ~m_local:4096 ~net:Partition_solve.Words with
  | Error e -> Alcotest.failf "partition: %s" (Engine_error.to_string e)
  | Ok sol -> (
    match Pipeline.partition_validate spec sol with
    | Error e -> Alcotest.failf "validate: %s" (Engine_error.to_string e)
    | Ok v ->
      Alcotest.(check bool) "simulation matches the model exactly" true
        v.Pipeline.pv_matches;
      Alcotest.(check string) "simulated max = gather words"
        (Bigint.to_string sol.Partition_solve.gather_words)
        (Bigint.to_string v.Pipeline.pv_max_words);
      Alcotest.(check bool) "ragged nest: several shape groups" true
        (List.length v.Pipeline.pv_groups >= 2);
      Alcotest.(check int) "every processor simulated" 6
        (List.fold_left (fun a g -> a + g.Pipeline.pg_procs) 0 v.Pipeline.pv_groups))

let () =
  Alcotest.run "engine"
    [
      ( "memo",
        [
          Alcotest.test_case "second request hits" `Quick test_second_request_hits_cache;
          Alcotest.test_case "names canonicalized" `Quick test_cache_ignores_names;
          Alcotest.test_case "m distinguishes" `Quick test_cache_distinguishes_m;
          Alcotest.test_case "stages agree with lib" `Quick test_memoized_stages_agree;
          Alcotest.test_case "plan-served analysis solves no LP" `Quick
            test_plan_served_analysis_solves_no_lp;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_sweep_matches_sequential;
          Alcotest.test_case "warm cache races" `Quick test_parallel_sweep_with_warm_cache;
          Alcotest.test_case "deterministic order" `Quick test_sweep_order_is_input_order;
        ] );
      ( "pool",
        [
          Alcotest.test_case "order and values" `Quick test_pool_map_order_and_values;
          Alcotest.test_case "exception propagation" `Quick test_pool_propagates_exceptions;
          Alcotest.test_case "validate_jobs" `Quick test_pool_validate_jobs;
          Alcotest.test_case "PROJTILE_JOBS" `Quick test_pool_jobs_env_override;
          Alcotest.test_case "staged values and order" `Quick
            test_pool_staged_values_and_order;
          Alcotest.test_case "staged continuation exception" `Quick
            test_pool_staged_continuation_exception;
          Alcotest.test_case "worker instrumentation" `Quick
            test_pool_worker_instrumentation;
        ] );
      ( "memo-sharded",
        [
          Alcotest.test_case "domain stress" `Quick test_memo_sharded_domain_stress;
          Alcotest.test_case "single flight" `Quick test_memo_single_flight;
          Alcotest.test_case "single flight after a failure" `Quick
            test_memo_single_flight_failure;
          QCheck_alcotest.to_alcotest prop_memo_sharding_invisible;
        ] );
      ( "partition",
        [
          Alcotest.test_case "checked path and typed errors" `Quick test_partition_checked;
          Alcotest.test_case "Pool validation = model" `Quick test_partition_validate;
        ] );
      ( "cache-persistence",
        [
          Alcotest.test_case "snapshot round-trip" `Quick test_cache_snapshot_roundtrip;
          Alcotest.test_case "corruption tolerated" `Quick
            test_cache_restore_tolerates_corruption;
          Alcotest.test_case "snapshot with basis section" `Quick
            test_cache_restore_snapshot_with_basis;
          Alcotest.test_case "poisoned tiles rejected" `Quick
            test_cache_restore_rejects_poisoned_tiles;
          Alcotest.test_case "truncated at every byte" `Quick test_cache_restore_truncated;
        ] );
      ( "report",
        [
          Alcotest.test_case "fields and sims" `Quick test_report_fields_and_sims;
          Alcotest.test_case "json shape" `Quick test_report_json_shape;
          Alcotest.test_case "hierarchy" `Quick test_hierarchy_report;
          Alcotest.test_case "hierarchy refuses oversized kernel" `Quick
            test_hierarchy_refuses_oversized_kernel;
        ] );
    ]

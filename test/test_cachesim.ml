(* Tests for the cache simulator: hand-traced LRU/FIFO behaviour, Belady
   OPT correctness on small traces (vs brute force), and classical
   replacement-theory properties. *)

let reads addrs = Array.of_list (List.map Trace.read addrs)

let stats_of ?(line_words = 1) policy capacity addrs =
  Trace.simulate ~line_words ~policy ~capacity (reads addrs)

(* ------------------------------------------------------------------ *)
(* Hand-traced behaviour                                              *)
(* ------------------------------------------------------------------ *)

let test_cold_misses () =
  let s = stats_of Policy.Lru 4 [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "misses" 4 s.Cache.misses;
  Alcotest.(check int) "hits" 0 s.Cache.hits;
  (* no capacity evictions during the run; the end-of-trace flush then
     evicts all four resident lines *)
  Alcotest.(check int) "flush evictions" 4 s.Cache.evictions

let test_hits_when_fits () =
  let s = stats_of Policy.Lru 4 [ 0; 1; 2; 3; 0; 1; 2; 3; 3; 2 ] in
  Alcotest.(check int) "misses" 4 s.Cache.misses;
  Alcotest.(check int) "hits" 6 s.Cache.hits

let test_lru_eviction_order () =
  (* capacity 2: 0 1 2 -> evicts 0; touching 0 again misses, 2 hits *)
  let s = stats_of Policy.Lru 2 [ 0; 1; 2; 2; 0 ] in
  Alcotest.(check int) "misses" 4 s.Cache.misses;
  Alcotest.(check int) "hits" 1 s.Cache.hits

let test_lru_recency_update () =
  (* capacity 2: 0 1 0 2 -> on 2, victim is 1 (0 was refreshed); then 0 hits *)
  let s = stats_of Policy.Lru 2 [ 0; 1; 0; 2; 0 ] in
  Alcotest.(check int) "misses" 3 s.Cache.misses;
  Alcotest.(check int) "hits" 2 s.Cache.hits

let test_fifo_ignores_recency () =
  (* same trace under FIFO: victim on 2 is 0 (inserted first) -> final 0 misses *)
  let s = stats_of Policy.Fifo 2 [ 0; 1; 0; 2; 0 ] in
  Alcotest.(check int) "misses" 4 s.Cache.misses;
  Alcotest.(check int) "hits" 1 s.Cache.hits

let test_opt_keeps_nearest_use () =
  (* capacity 2, trace 0 1 2 0: OPT evicts 1 (never reused), keeping 0. *)
  let s = stats_of Policy.Opt 2 [ 0; 1; 2; 0 ] in
  Alcotest.(check int) "misses" 3 s.Cache.misses;
  Alcotest.(check int) "hits" 1 s.Cache.hits

let test_writeback_accounting () =
  let t = [| Trace.write 0; Trace.read 1; Trace.read 2 |] in
  let s = Trace.simulate ~policy:Policy.Lru ~capacity:2 t in
  (* 0 written (dirty), evicted by 2 -> 1 writeback during run; nothing
     dirty at flush. *)
  Alcotest.(check int) "writebacks" 1 s.Cache.writebacks;
  Alcotest.(check int) "words moved" 4 (Cache.words_moved ~line_words:1 s)

let test_flush_writes_dirty () =
  let t = [| Trace.write 0; Trace.write 1 |] in
  let s = Trace.simulate ~policy:Policy.Lru ~capacity:4 t in
  Alcotest.(check int) "flush writebacks" 2 s.Cache.writebacks

let test_clean_eviction_no_writeback () =
  let s = stats_of Policy.Lru 1 [ 0; 1; 2 ] in
  Alcotest.(check int) "no writebacks" 0 s.Cache.writebacks;
  (* two capacity evictions plus the final flush of line 2 *)
  Alcotest.(check int) "evictions" 3 s.Cache.evictions

let test_rewrite_dirty_once () =
  (* Writing the same line twice then evicting = one writeback. *)
  let t = [| Trace.write 5; Trace.write 5; Trace.read 6 |] in
  let s = Trace.simulate ~policy:Policy.Lru ~capacity:1 t in
  Alcotest.(check int) "one writeback" 1 s.Cache.writebacks

let test_line_granularity () =
  (* line_words = 4: addresses 0..7 are 2 lines. *)
  let s = stats_of ~line_words:4 Policy.Lru 8 [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check int) "2 misses" 2 s.Cache.misses;
  Alcotest.(check int) "6 hits" 6 s.Cache.hits;
  Alcotest.(check int) "words moved" 8 (Cache.words_moved ~line_words:4 s)

let test_online_cache_api () =
  let c = Cache.create ~policy:Policy.Lru ~capacity:2 () in
  Cache.access c ~write:false 10;
  Cache.access c ~write:true 11;
  Alcotest.(check bool) "resident" true (Cache.resident c 10);
  Cache.access c ~write:false 12;
  Alcotest.(check bool) "10 evicted" false (Cache.resident c 10);
  Cache.flush c;
  let s = Cache.stats c in
  Alcotest.(check int) "accesses" 3 s.Cache.accesses;
  Alcotest.(check int) "dirty flush" 1 s.Cache.writebacks;
  Alcotest.(check int) "capacity lines" 2 (Cache.capacity_lines c)

let test_create_validation () =
  Alcotest.check_raises "opt online"
    (Invalid_argument "Cache.create: OPT needs the full trace; use Trace.simulate") (fun () ->
    ignore (Cache.create ~policy:Policy.Opt ~capacity:4 ()));
  Alcotest.check_raises "capacity" (Invalid_argument "Cache.create: capacity below one line")
    (fun () -> ignore (Cache.create ~policy:Policy.Lru ~capacity:0 ()));
  Alcotest.check_raises "line_words" (Invalid_argument "Cache.create: line_words must be positive")
    (fun () -> ignore (Cache.create ~line_words:0 ~policy:Policy.Lru ~capacity:4 ()))

let test_words_touched () =
  Alcotest.(check int) "distinct" 3 (Trace.words_touched (reads [ 0; 1; 0; 2; 1 ]))

(* ------------------------------------------------------------------ *)
(* Brute-force OPT verification                                       *)
(* ------------------------------------------------------------------ *)

(* Minimum achievable misses for a read-only trace by exhaustive search
   over eviction choices. Exponential: keep traces tiny. *)
let brute_force_min_misses capacity trace =
  let n = Array.length trace in
  let module SS = Set.Make (Int) in
  let rec go i cached =
    if i = n then 0
    else begin
      let a = trace.(i).Trace.addr in
      if SS.mem a cached then go (i + 1) cached
      else if SS.cardinal cached < capacity then 1 + go (i + 1) (SS.add a cached)
      else begin
        (* try every victim *)
        SS.fold
          (fun victim best ->
            min best (1 + go (i + 1) (SS.add a (SS.remove victim cached))))
          cached max_int
      end
    end
  in
  go 0 SS.empty

let test_opt_matches_brute_force () =
  let cases =
    [
      (2, [ 0; 1; 2; 0; 1; 2 ]);
      (2, [ 0; 1; 2; 1; 0; 2; 0 ]);
      (3, [ 0; 1; 2; 3; 0; 1; 2; 3 ]);
      (2, [ 4; 4; 4; 4 ]);
      (3, [ 0; 1; 2; 3; 2; 1; 0; 3; 1 ]);
    ]
  in
  List.iter
    (fun (cap, addrs) ->
      let t = reads addrs in
      let opt = (Trace.simulate ~policy:Policy.Opt ~capacity:cap t).Cache.misses in
      let best = brute_force_min_misses cap t in
      Alcotest.(check int)
        (Printf.sprintf "cap=%d trace=%s" cap (String.concat "," (List.map string_of_int addrs)))
        best opt)
    cases

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let gen_trace =
  QCheck.Gen.(
    list_size (int_range 1 200) (pair (int_range 0 20) bool) >>= fun l ->
    return (Array.of_list (List.map (fun (a, w) -> { Trace.addr = a; write = w }) l)))

let arb_trace =
  QCheck.make
    ~print:(fun t ->
      String.concat ","
        (Array.to_list (Array.map (fun a -> Printf.sprintf "%s%d" (if a.Trace.write then "w" else "r") a.Trace.addr) t)))
    gen_trace

let arb_trace_cap = QCheck.pair arb_trace (QCheck.int_range 1 8)

let props =
  [
    QCheck.Test.make ~name:"OPT <= LRU misses" ~count:300 arb_trace_cap (fun (t, cap) ->
      (Trace.simulate ~policy:Policy.Opt ~capacity:cap t).Cache.misses
      <= (Trace.simulate ~policy:Policy.Lru ~capacity:cap t).Cache.misses);
    QCheck.Test.make ~name:"OPT <= FIFO misses" ~count:300 arb_trace_cap (fun (t, cap) ->
      (Trace.simulate ~policy:Policy.Opt ~capacity:cap t).Cache.misses
      <= (Trace.simulate ~policy:Policy.Fifo ~capacity:cap t).Cache.misses);
    QCheck.Test.make ~name:"LRU inclusion: more capacity never hurts" ~count:200
      arb_trace_cap (fun (t, cap) ->
        (Trace.simulate ~policy:Policy.Lru ~capacity:(cap + 1) t).Cache.misses
        <= (Trace.simulate ~policy:Policy.Lru ~capacity:cap t).Cache.misses);
    QCheck.Test.make ~name:"misses >= distinct lines (cold)" ~count:200 arb_trace_cap
      (fun (t, cap) ->
        List.for_all
          (fun p -> (Trace.simulate ~policy:p ~capacity:cap t).Cache.misses >= Trace.words_touched t)
          [ Policy.Lru; Policy.Fifo; Policy.Opt ]);
    QCheck.Test.make ~name:"hits + misses = accesses" ~count:200 arb_trace_cap
      (fun (t, cap) ->
        List.for_all
          (fun p ->
            let s = Trace.simulate ~policy:p ~capacity:cap t in
            s.Cache.hits + s.Cache.misses = Array.length t && s.Cache.accesses = Array.length t)
          [ Policy.Lru; Policy.Fifo; Policy.Opt ]);
    QCheck.Test.make ~name:"writebacks bounded by distinct written lines * misses" ~count:200
      arb_trace_cap (fun (t, cap) ->
        List.for_all
          (fun p ->
            let s = Trace.simulate ~policy:p ~capacity:cap t in
            s.Cache.writebacks <= s.Cache.misses (* each writeback needs a prior allocate *))
          [ Policy.Lru; Policy.Fifo; Policy.Opt ]);
    QCheck.Test.make ~name:"big cache: exactly one miss per distinct line" ~count:200 arb_trace
      (fun t ->
        (* no capacity evictions, so every resident line leaves at the
           flush: evictions = distinct lines = misses *)
        let s = Trace.simulate ~policy:Policy.Lru ~capacity:1024 t in
        s.Cache.misses = Trace.words_touched t && s.Cache.evictions = Trace.words_touched t);
    QCheck.Test.make ~name:"OPT matches brute force (tiny)" ~count:60
      (QCheck.pair
         (QCheck.make
            ~print:(fun t -> String.concat "," (Array.to_list (Array.map (fun a -> string_of_int a.Trace.addr) t)))
            QCheck.Gen.(
              list_size (int_range 1 10) (int_range 0 5) >>= fun l ->
              return (Array.of_list (List.map Trace.read l))))
         (QCheck.int_range 1 3))
      (fun (t, cap) ->
        (Trace.simulate ~policy:Policy.Opt ~capacity:cap t).Cache.misses
        = brute_force_min_misses cap t);
  ]


(* ------------------------------------------------------------------ *)
(* Negative addresses and line mapping                                *)
(* ------------------------------------------------------------------ *)

let test_negative_address_lines () =
  (* Floor-division line mapping: with line_words = 4, words -4..-1 are
     one line and 0..3 another. Truncating division used to fold words
     -3..3 onto just two lines, one of them seven words wide. *)
  let c = Cache.create ~line_words:4 ~policy:Policy.Lru ~capacity:64 () in
  Cache.access c ~write:false (-1);
  Alcotest.(check bool) "-4 same line" true (Cache.resident c (-4));
  Alcotest.(check bool) "-5 other line" false (Cache.resident c (-5));
  Alcotest.(check bool) "0 other line" false (Cache.resident c 0);
  Cache.access c ~write:false (-2);
  Cache.access c ~write:false 1;
  let s = Cache.stats c in
  (* -1/-2 share a line; 1 is a distinct line (not folded onto it) *)
  Alcotest.(check int) "two lines, two misses" 2 s.Cache.misses;
  Alcotest.(check int) "one hit" 1 s.Cache.hits

let test_negative_address_opt_matches_lru_mapping () =
  (* OPT uses the same floor line mapping as the online caches: a
     single-line working set of negative words stays one line. *)
  let t = reads [ -1; -2; -3; -4; -1 ] in
  let s = Trace.simulate ~line_words:4 ~policy:Policy.Opt ~capacity:8 t in
  Alcotest.(check int) "one miss" 1 s.Cache.misses;
  Alcotest.(check int) "four hits" 4 s.Cache.hits

(* ------------------------------------------------------------------ *)
(* Naive reference model and batched-run equivalence                  *)
(* ------------------------------------------------------------------ *)

let line_of ~line_words addr =
  if addr >= 0 then addr / line_words else -1 - ((-1 - addr) / line_words)

(* Obviously-correct list-based model: the resident set is an assoc list
   (line, dirty), most recent (LRU) / newest (FIFO) first, victim last.
   The flat-array simulator must match it field for field. *)
let naive_simulate ~line_words ~policy ~capacity (t : Trace.t) : Cache.stats =
  let cap_lines = capacity / line_words in
  let lst = ref [] in
  let hits = ref 0 and misses = ref 0 and evictions = ref 0 and writebacks = ref 0 in
  Array.iter
    (fun (a : Trace.access) ->
      let line = line_of ~line_words a.Trace.addr in
      match List.assoc_opt line !lst with
      | Some d ->
        incr hits;
        let d = d || a.Trace.write in
        if policy = Policy.Lru then lst := (line, d) :: List.remove_assoc line !lst
        else lst := List.map (fun (l, dd) -> if l = line then (l, d) else (l, dd)) !lst
      | None ->
        incr misses;
        if List.length !lst >= cap_lines then begin
          match List.rev !lst with
          | (vl, vd) :: _ ->
            incr evictions;
            if vd then incr writebacks;
            lst := List.remove_assoc vl !lst
          | [] -> assert false
        end;
        lst := (line, a.Trace.write) :: !lst)
    t;
  List.iter
    (fun (_, d) ->
      incr evictions;
      if d then incr writebacks)
    !lst;
  {
    Cache.accesses = Array.length t;
    hits = !hits;
    misses = !misses;
    evictions = !evictions;
    writebacks = !writebacks;
  }

(* Replay a trace through access_run, merging maximal runs of
   consecutive same-line accesses exactly as the executor does. *)
let simulate_batched ~line_words ~policy ~capacity (t : Trace.t) : Cache.stats =
  let c = Cache.create ~line_words ~policy ~capacity () in
  let n = Array.length t in
  let i = ref 0 in
  while !i < n do
    let line = line_of ~line_words t.(!i).Trace.addr in
    let j = ref !i and any_write = ref false in
    while !j < n && line_of ~line_words t.(!j).Trace.addr = line do
      any_write := !any_write || t.(!j).Trace.write;
      incr j
    done;
    Cache.access_run c ~write:!any_write ~count:(!j - !i) t.(!i).Trace.addr;
    i := !j
  done;
  Cache.flush c;
  Cache.stats c

let simulate_hierarchy_per_word ~line_words ~capacities (t : Trace.t) =
  let h = Hierarchy.create ~line_words ~capacities () in
  Array.iter (fun (a : Trace.access) -> Hierarchy.access h ~write:a.Trace.write a.Trace.addr) t;
  Hierarchy.flush h;
  Hierarchy.stats h

let simulate_hierarchy_batched ~line_words ~capacities (t : Trace.t) =
  let h = Hierarchy.create ~line_words ~capacities () in
  let n = Array.length t in
  let i = ref 0 in
  while !i < n do
    let line = line_of ~line_words t.(!i).Trace.addr in
    let j = ref !i and any_write = ref false in
    while !j < n && line_of ~line_words t.(!j).Trace.addr = line do
      any_write := !any_write || t.(!j).Trace.write;
      incr j
    done;
    Hierarchy.access_run h ~first_write:t.(!i).Trace.write ~any_write:!any_write
      ~count:(!j - !i) t.(!i).Trace.addr;
    i := !j
  done;
  Hierarchy.flush h;
  Hierarchy.stats h

let stats_equal (a : Cache.stats) (b : Cache.stats) =
  a.Cache.accesses = b.Cache.accesses && a.Cache.hits = b.Cache.hits
  && a.Cache.misses = b.Cache.misses && a.Cache.evictions = b.Cache.evictions
  && a.Cache.writebacks = b.Cache.writebacks

(* Traces with negative addresses too, so the floor line mapping is
   exercised on both sides of the origin. *)
let gen_trace_signed =
  QCheck.Gen.(
    list_size (int_range 1 200) (pair (int_range (-20) 20) bool) >>= fun l ->
    return (Array.of_list (List.map (fun (a, w) -> { Trace.addr = a; write = w }) l)))

let arb_trace_signed =
  QCheck.make
    ~print:(fun t ->
      String.concat ","
        (Array.to_list
           (Array.map
              (fun a -> Printf.sprintf "%s%d" (if a.Trace.write then "w" else "r") a.Trace.addr)
              t)))
    gen_trace_signed

let batched_props =
  [
    QCheck.Test.make ~name:"flat cache = naive reference model" ~count:300
      (QCheck.triple arb_trace_signed (QCheck.int_range 1 8) (QCheck.int_range 1 4))
      (fun (t, cap_lines, line_words) ->
        List.for_all
          (fun policy ->
            let capacity = cap_lines * line_words in
            stats_equal
              (Trace.simulate ~line_words ~policy ~capacity t)
              (naive_simulate ~line_words ~policy ~capacity t))
          [ Policy.Lru; Policy.Fifo ]);
    QCheck.Test.make ~name:"access_run = word-by-word" ~count:300
      (QCheck.triple arb_trace_signed (QCheck.int_range 1 8) (QCheck.oneofl [ 1; 4; 8 ]))
      (fun (t, cap_lines, line_words) ->
        List.for_all
          (fun policy ->
            let capacity = cap_lines * line_words in
            stats_equal
              (Trace.simulate ~line_words ~policy ~capacity t)
              (simulate_batched ~line_words ~policy ~capacity t))
          [ Policy.Lru; Policy.Fifo ]);
    QCheck.Test.make ~name:"hierarchy access_run = word-by-word" ~count:200
      (QCheck.triple arb_trace_signed (QCheck.int_range 1 6) (QCheck.oneofl [ 1; 4 ]))
      (fun (t, cap_lines, line_words) ->
        let capacities = [| cap_lines * line_words; 4 * cap_lines * line_words |] in
        let a = simulate_hierarchy_per_word ~line_words ~capacities t in
        let b = simulate_hierarchy_batched ~line_words ~capacities t in
        Array.for_all2 stats_equal a b);
    QCheck.Test.make ~name:"after flush: evictions = misses at every level" ~count:200
      (QCheck.pair arb_trace_signed (QCheck.int_range 1 6))
      (fun (t, cap) ->
        (* every line that was ever allocated (a miss) eventually leaves,
           by capacity eviction or by the flush — at each level *)
        let s = simulate_hierarchy_per_word ~line_words:1 ~capacities:[| cap; 4 * cap |] t in
        Array.for_all (fun (l : Cache.stats) -> l.Cache.evictions = l.Cache.misses) s);
  ]

(* ------------------------------------------------------------------ *)
(* Dense line table vs hashed line table                              *)
(* ------------------------------------------------------------------ *)

(* A trace in range for a [~lines] cache, replayed through [access] and
   batched [access_run] calls with a [flush] at a random point; [bad]
   inserts one out-of-range address before step [at]. *)
type dense_case = {
  line_words : int;
  lines : int;
  cap_lines : int;
  steps : (int * bool * int) list;  (* addr, write, count *)
  flush_at : int;
  bad : (int * int) option;  (* at, addr *)
}

let gen_dense_case =
  QCheck.Gen.(
    oneofl [ 1; 2; 4 ] >>= fun line_words ->
    int_range 1 24 >>= fun lines ->
    int_range 1 8 >>= fun cap_lines ->
    let words = lines * line_words in
    list_size (int_range 1 200) (triple (int_bound (words - 1)) bool (int_range 1 3))
    >>= fun steps ->
    int_bound (List.length steps) >>= fun flush_at ->
    opt
      (pair (int_bound (List.length steps))
         (oneof [ int_range (-8) (-1); int_range words (words + 8); return max_int ]))
    >>= fun bad -> return { line_words; lines; cap_lines; steps; flush_at; bad })

let print_dense_case c =
  Printf.sprintf "line_words %d, lines %d, cap_lines %d, flush at %d, bad %s: %s" c.line_words
    c.lines c.cap_lines c.flush_at
    (match c.bad with None -> "-" | Some (at, a) -> Printf.sprintf "%d@%d" a at)
    (String.concat ","
       (List.map
          (fun (a, w, n) -> Printf.sprintf "%s%d*%d" (if w then "w" else "r") a n)
          c.steps))

let arb_dense_case = QCheck.make ~print:print_dense_case gen_dense_case

(* Replay the case into a cache made by [make ~on_evict]; returns the
   final stats, the [on_evict] sequence and the [resident] answers seen
   after every step. An out-of-range access must raise
   [Invalid_argument] and change nothing; [None] if it does not raise. *)
let replay_dense_case c make =
  let evicted = ref [] in
  let cache = make ~on_evict:(fun ~line ~dirty -> evicted := (line, dirty) :: !evicted) in
  let resident = ref [] in
  let ok = ref true in
  List.iteri
    (fun i (addr, write, count) ->
      (match c.bad with
      | Some (at, bad) when at = i ->
        let before = Cache.stats cache in
        (match Cache.access cache ~write bad with
        | () -> ok := false
        | exception Invalid_argument _ -> ());
        if Cache.stats cache <> before then ok := false
      | _ -> ());
      if i = c.flush_at then Cache.flush cache;
      if count = 1 then Cache.access cache ~write addr
      else Cache.access_run cache ~write ~count addr;
      resident := Cache.resident cache addr :: !resident)
    c.steps;
  Cache.flush cache;
  if !ok then Some (Cache.stats cache, List.rev !evicted, List.rev !resident) else None

let dense_props =
  [
    QCheck.Test.make ~name:"dense line table = hashed line table" ~count:500 arb_dense_case
      (fun c ->
        List.for_all
          (fun policy ->
            let capacity = c.cap_lines * c.line_words in
            let hashed =
              replay_dense_case { c with bad = None } (fun ~on_evict ->
                Cache.create ~line_words:c.line_words ~on_evict ~policy ~capacity ())
            in
            let dense =
              replay_dense_case c (fun ~on_evict ->
                Cache.create ~line_words:c.line_words ~lines:c.lines ~on_evict ~policy
                  ~capacity ())
            in
            hashed <> None && dense = hashed)
          [ Policy.Lru; Policy.Fifo ]);
  ]

let test_dense_validation () =
  Alcotest.check_raises "negative lines"
    (Invalid_argument "Cache.create: lines outside [0, 2^31)") (fun () ->
    ignore (Cache.create ~lines:(-1) ~policy:Policy.Lru ~capacity:4 ()));
  Alcotest.check_raises "lines past int32"
    (Invalid_argument "Cache.create: lines outside [0, 2^31)") (fun () ->
    ignore (Cache.create ~lines:(1 lsl 31) ~policy:Policy.Lru ~capacity:4 ()));
  (* The last word of the last line is in range, the next word is not. *)
  let c = Cache.create ~line_words:4 ~lines:3 ~policy:Policy.Lru ~capacity:8 () in
  Cache.access c ~write:true 11;
  Alcotest.(check bool) "word 11 resident" true (Cache.resident c 8);
  Alcotest.(check bool) "word 12 refused" true
    (match Cache.access c ~write:false 12 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check bool) "resident refuses too" true
    (match Cache.resident c (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Alcotest.(check int) "refused accesses not counted" 1 (Cache.stats c).Cache.accesses

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                          *)
(* ------------------------------------------------------------------ *)

let test_hierarchy_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Hierarchy.create: need at least one level")
    (fun () -> ignore (Hierarchy.create ~capacities:[||] ()));
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Hierarchy.create: capacities must be strictly increasing") (fun () ->
    ignore (Hierarchy.create ~capacities:[| 8; 8 |] ()));
  Alcotest.check_raises "opt" (Invalid_argument "Hierarchy.create: OPT is offline-only")
    (fun () -> ignore (Hierarchy.create ~policy:Policy.Opt ~capacities:[| 2; 4 |] ()))

let test_hierarchy_filtering () =
  (* L1 of 2 words, L2 of 4 words; stream 0 1 2 0 1 2:
     L1 thrashes (all 6 miss); L2 holds all three lines (3 misses). *)
  let h = Hierarchy.create ~capacities:[| 2; 4 |] () in
  List.iter (fun a -> Hierarchy.access h ~write:false a) [ 0; 1; 2; 0; 1; 2 ];
  let s = Hierarchy.stats h in
  Alcotest.(check int) "L1 misses" 6 s.(0).Cache.misses;
  Alcotest.(check int) "L2 accesses = L1 misses" 6 s.(1).Cache.accesses;
  Alcotest.(check int) "L2 misses" 3 s.(1).Cache.misses;
  Alcotest.(check int) "L2 hits" 3 s.(1).Cache.hits

let test_hierarchy_hit_in_l1 () =
  let h = Hierarchy.create ~capacities:[| 4; 16 |] () in
  List.iter (fun a -> Hierarchy.access h ~write:false a) [ 7; 7; 7; 7 ];
  let s = Hierarchy.stats h in
  Alcotest.(check int) "one L1 miss" 1 s.(0).Cache.misses;
  Alcotest.(check int) "L2 sees only the miss" 1 s.(1).Cache.accesses

let test_hierarchy_writeback_cascade () =
  (* Dirty line evicted from L1 must be written into L2. *)
  let h = Hierarchy.create ~capacities:[| 1; 8 |] () in
  Hierarchy.access h ~write:true 0;
  Hierarchy.access h ~write:false 1;
  (* evicts dirty 0 from L1 -> write access hits/installs in L2 *)
  let s = Hierarchy.stats h in
  Alcotest.(check int) "L1 writebacks" 1 s.(0).Cache.writebacks;
  (* L2 saw: miss(0), miss(1), writeback-write(0) = 3 accesses *)
  Alcotest.(check int) "L2 accesses" 3 s.(1).Cache.accesses;
  Hierarchy.flush h;
  let s = Hierarchy.stats h in
  (* after flush, the dirty 0 line leaves L2 too *)
  Alcotest.(check bool) "L2 flushed dirty" true (s.(1).Cache.writebacks >= 1)

let test_hierarchy_traffic_vector () =
  let h = Hierarchy.create ~capacities:[| 2; 8 |] () in
  List.iter (fun a -> Hierarchy.access h ~write:false a) [ 0; 1; 2; 3; 0; 1; 2; 3 ];
  Hierarchy.flush h;
  let t = Hierarchy.traffic h in
  Alcotest.(check int) "two boundaries" 2 (Array.length t);
  Alcotest.(check int) "L1 boundary = 8 (thrash)" 8 t.(0);
  Alcotest.(check int) "memory boundary = 4 (fits)" 4 t.(1);
  Alcotest.(check int) "levels" 2 (Hierarchy.levels h)


let test_hierarchy_fifo_and_lines () =
  (* hierarchy honors both policy and line granularity *)
  let h = Hierarchy.create ~line_words:2 ~policy:Policy.Fifo ~capacities:[| 4; 16 |] () in
  List.iter (fun a -> Hierarchy.access h ~write:false a) [ 0; 1; 2; 3; 0; 1 ];
  let s = Hierarchy.stats h in
  (* lines {0,1} and {2,3}: both fit L1 (2 lines) -> 2 misses, 4 hits *)
  Alcotest.(check int) "L1 misses" 2 s.(0).Cache.misses;
  Alcotest.(check int) "L1 hits" 4 s.(0).Cache.hits;
  Hierarchy.flush h;
  Alcotest.(check int) "memory words" 4 (Hierarchy.traffic h).(1)

let hierarchy_props =
  [
    QCheck.Test.make ~name:"level-k accesses = level-(k-1) misses + writebacks" ~count:150
      (QCheck.pair arb_trace (QCheck.int_range 1 6))
      (fun (t, cap) ->
        let h = Hierarchy.create ~capacities:[| cap; 4 * cap |] () in
        Array.iter (fun a -> Hierarchy.access h ~write:a.Trace.write a.Trace.addr) t;
        let s = Hierarchy.stats h in
        (* before flush: every L1 miss and every dirty L1 eviction reaches L2 *)
        s.(1).Cache.accesses = s.(0).Cache.misses + s.(0).Cache.writebacks);
    QCheck.Test.make ~name:"single-level hierarchy = plain cache" ~count:150
      (QCheck.pair arb_trace (QCheck.int_range 1 8))
      (fun (t, cap) ->
        let h = Hierarchy.create ~capacities:[| cap |] () in
        Array.iter (fun a -> Hierarchy.access h ~write:a.Trace.write a.Trace.addr) t;
        Hierarchy.flush h;
        let hs = (Hierarchy.stats h).(0) in
        let cs = Trace.simulate ~policy:Policy.Lru ~capacity:cap t in
        hs.Cache.misses = cs.Cache.misses && hs.Cache.writebacks = cs.Cache.writebacks);
    QCheck.Test.make ~name:"memory traffic <= single-small-cache traffic" ~count:150
      (QCheck.pair arb_trace (QCheck.int_range 1 6))
      (fun (t, cap) ->
        let h = Hierarchy.create ~capacities:[| cap; 8 * cap |] () in
        Array.iter (fun a -> Hierarchy.access h ~write:a.Trace.write a.Trace.addr) t;
        Hierarchy.flush h;
        let mem = (Hierarchy.traffic h).(1) in
        let single = Cache.words_moved ~line_words:1 (Trace.simulate ~policy:Policy.Lru ~capacity:cap t) in
        mem <= single);
  ]

let () =
  Alcotest.run "cachesim"
    [
      ( "unit",
        [
          Alcotest.test_case "cold misses" `Quick test_cold_misses;
          Alcotest.test_case "hits when fits" `Quick test_hits_when_fits;
          Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "LRU recency" `Quick test_lru_recency_update;
          Alcotest.test_case "FIFO vs recency" `Quick test_fifo_ignores_recency;
          Alcotest.test_case "OPT lookahead" `Quick test_opt_keeps_nearest_use;
          Alcotest.test_case "writeback accounting" `Quick test_writeback_accounting;
          Alcotest.test_case "flush dirty" `Quick test_flush_writes_dirty;
          Alcotest.test_case "clean eviction" `Quick test_clean_eviction_no_writeback;
          Alcotest.test_case "rewrite dirty once" `Quick test_rewrite_dirty_once;
          Alcotest.test_case "line granularity" `Quick test_line_granularity;
          Alcotest.test_case "online API" `Quick test_online_cache_api;
          Alcotest.test_case "create validation" `Quick test_create_validation;
          Alcotest.test_case "dense table validation" `Quick test_dense_validation;
          Alcotest.test_case "words_touched" `Quick test_words_touched;
          Alcotest.test_case "OPT = brute force" `Quick test_opt_matches_brute_force;
          Alcotest.test_case "negative address lines" `Quick test_negative_address_lines;
          Alcotest.test_case "negative address OPT" `Quick
            test_negative_address_opt_matches_lru_mapping;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "validation" `Quick test_hierarchy_validation;
          Alcotest.test_case "filtering" `Quick test_hierarchy_filtering;
          Alcotest.test_case "hit in L1" `Quick test_hierarchy_hit_in_l1;
          Alcotest.test_case "writeback cascade" `Quick test_hierarchy_writeback_cascade;
          Alcotest.test_case "traffic vector" `Quick test_hierarchy_traffic_vector;
          Alcotest.test_case "fifo + lines" `Quick test_hierarchy_fifo_and_lines;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
      ("batched-properties", List.map QCheck_alcotest.to_alcotest batched_props);
      ("hierarchy-properties", List.map QCheck_alcotest.to_alcotest hierarchy_props);
      ("dense-properties", List.map QCheck_alcotest.to_alcotest dense_props);
    ]

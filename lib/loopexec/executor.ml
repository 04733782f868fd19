type result = {
  schedule : Schedules.t;
  policy : Policy.t;
  capacity : int;
  stats : Cache.stats;
  words_moved : int;
}

let accesses_per_point spec =
  Array.fold_left
    (fun acc (a : Spec.array_ref) ->
      acc + (match a.Spec.mode with Spec.Read | Spec.Write -> 1 | Spec.Update -> 2))
    0 spec.Spec.arrays

let trace_length spec = Spec.iteration_count spec * accesses_per_point spec

let opt_trace_limit = 1 lsl 22

type hierarchy_result = {
  hschedule : Schedules.t;
  capacities : int array;
  hstats : Cache.stats array;
  boundary_words : int array;
}

(* Cache-sim latencies: full simulated executions, the dominant cost of
   any sweep that simulates. Timed + traced so a sweep's trace shows one
   fat span per simulation under the pool.task lanes. *)
let t_run = Obs.timer "executor.run"
let t_run_hierarchy = Obs.timer "executor.run_hierarchy"
let c_batched_runs = Obs.counter "cachesim.batched_runs"
let c_elided = Obs.counter "executor.elided_touches"

(* The strided row walker, the one executor path (the .mli states the
   elision rule and why it is exact). Per point the arrays are touched
   in spec order, an Update as a read then a write; strictly consecutive
   same-line touches merge into one run handed to [sink]. [lru_lines =
   Some c] (an LRU first level of [c] lines) enables elision. Returns the
   run count and the skipped word touches; a simulation records them
   into [cachesim.batched_runs] and [executor.elided_touches] once
   ([record_walk]), keeping the hot loop instrumentation-free. *)
let walk ?lru_lines ~line_words spec schedule sink =
  let layout = Layout.make spec in
  let arrays = spec.Spec.arrays in
  let n = Array.length arrays and d = Spec.num_loops spec in
  let strides = Array.init n (Layout.strides layout) in
  let width =
    Array.map
      (fun (a : Spec.array_ref) -> match a.Spec.mode with Spec.Update -> 2 | _ -> 1)
      arrays
  in
  let first_w = Array.map (fun (a : Spec.array_ref) -> a.Spec.mode = Spec.Write) arrays in
  let any_w = Array.map (fun (a : Spec.array_ref) -> a.Spec.mode <> Spec.Read) arrays in
  (* Per innermost loop: the arrays that vary along its rows, the word
     touches of the others at one point, and the full-point period K
     (1 = no elision). Every loop is in some support, so v >= 1. *)
  let varying = Array.init d (fun i -> Array.of_list (Spec.touching_arrays spec i)) in
  let invariant_width =
    Array.init d (fun i ->
      let w = ref 0 in
      Array.iteri (fun j s -> if s.(i) = 0 then w := !w + width.(j)) strides;
      !w)
  in
  let period =
    Array.map
      (fun vary ->
        match lru_lines with
        | Some c when c >= 2 * n -> 1 + ((c - (2 * n)) / Array.length vary)
        | _ -> 1)
      varying
  in
  let addr = Array.make n 0 and step = Array.make n 0 in
  let runs = ref 0 and elided = ref 0 in
  let pend_line = ref 0
  and pend_addr = ref 0
  and pend_first = ref false
  and pend_any = ref false
  and pend_count = ref 0 in
  let flush () =
    if !pend_count > 0 then begin
      incr runs;
      sink ~first_write:!pend_first ~any_write:!pend_any ~count:!pend_count !pend_addr
    end
  in
  (* Layout addresses are non-negative: plain division is the line, and
     the paper's one-word lines skip the division. *)
  let touch a first any count =
    let line = if line_words = 1 then a else a / line_words in
    if !pend_count > 0 && line = !pend_line then begin
      pend_count := !pend_count + count;
      pend_any := !pend_any || any
    end
    else begin
      flush ();
      pend_line := line;
      pend_addr := a;
      pend_first := first;
      pend_any := any;
      pend_count := count
    end
  in
  Schedules.iterate_rows spec schedule (fun point inner lo hi ->
    for j = 0 to n - 1 do
      let s = strides.(j) in
      let a = ref (Layout.base layout j) in
      for i = 0 to d - 1 do
        a := !a + (s.(i) * point.(i))
      done;
      addr.(j) <- !a;
      step.(j) <- s.(inner)
    done;
    let vary = varying.(inner) and k = period.(inner) in
    let last = hi - lo - 1 in
    let prev_full = ref (-1) and next_full = ref 0 and skipped = ref 0 in
    for t = 0 to last do
      if t = !next_full || t = last then begin
        (* An invariant array carries the touches skipped since the
           previous full point. *)
        let gap = t - !prev_full in
        for j = 0 to n - 1 do
          let st = step.(j) in
          let count = if st = 0 then width.(j) * gap else width.(j) in
          touch (addr.(j) + (t * st)) first_w.(j) any_w.(j) count
        done;
        prev_full := t;
        if t = !next_full then next_full := t + k
      end
      else begin
        incr skipped;
        for q = 0 to Array.length vary - 1 do
          let j = vary.(q) in
          touch (addr.(j) + (t * step.(j))) first_w.(j) any_w.(j) width.(j)
        done
      end
    done;
    elided := !elided + (!skipped * invariant_width.(inner)));
  flush ();
  (!runs, !elided)

let record_walk (runs, elided) =
  Obs.incr ~by:runs c_batched_runs;
  Obs.incr ~by:elided c_elided

(* Unmerged words: at one word per line, a merged run is a single touch
   or an Update's read+write pair — distinct arrays never share an
   address, and neither do an array's touches at consecutive points,
   since a lone array's support spans every loop. *)
let trace_of spec ~schedule =
  let buf = Array.make (trace_length spec) { Trace.addr = 0; write = false } in
  let pos = ref 0 in
  ignore
    (walk ~line_words:1 spec schedule (fun ~first_write ~any_write ~count addr ->
       buf.(!pos) <- { Trace.addr; write = first_write };
       for p = !pos + 1 to !pos + count - 1 do
         buf.(p) <- { Trace.addr; write = any_write }
       done;
       pos := !pos + count));
  assert (!pos = Array.length buf);
  buf

(* The walker's caches get a dense line table: [Layout] addresses fill
   [[0, total_words)], so every line lies below
   [ceil (total_words / line_words)]. A table is 4 bytes per line per
   cache; past [dense_lines_limit] lines (16 MiB) the hashed table
   serves instead, so a huge layout cannot make a simulation allocate
   without bound. *)
let dense_lines_limit = 1 lsl 22

let dense_lines spec ~line_words =
  let lines = (Spec.total_array_words spec + line_words - 1) / line_words in
  if lines <= dense_lines_limit then Some lines else None

let lru_lines policy ~line_words capacity =
  match policy with
  | Policy.Lru -> Some (capacity / line_words)
  | Policy.Fifo | Policy.Opt -> None

let run_hierarchy ?(line_words = 1) ?(policy = Policy.Lru) spec ~schedule ~capacities =
  Obs.Trace.with_span "executor.run_hierarchy" (fun () ->
  Obs.time t_run_hierarchy (fun () ->
  let h =
    Hierarchy.create ~line_words ?lines:(dense_lines spec ~line_words) ~policy ~capacities ()
  in
  record_walk
    (walk ?lru_lines:(lru_lines policy ~line_words capacities.(0)) ~line_words spec schedule
       (fun ~first_write ~any_write ~count addr ->
         Hierarchy.access_run h ~first_write ~any_write ~count addr));
  Hierarchy.flush h;
  Hierarchy.record_obs h;
  {
    hschedule = schedule;
    capacities = Array.copy capacities;
    hstats = Hierarchy.stats h;
    boundary_words = Hierarchy.traffic h;
  }))

let run ?(line_words = 1) ?(policy = Policy.Lru) spec ~schedule ~capacity =
  Obs.Trace.with_span "executor.run" (fun () ->
  Obs.time t_run (fun () ->
  let stats =
    match policy with
    | Policy.Opt ->
      let len = trace_length spec in
      if len > opt_trace_limit then
        invalid_arg
          (Printf.sprintf "Executor.run: OPT trace of %d accesses is too large" len);
      Trace.simulate ~line_words ~policy ~capacity (trace_of spec ~schedule)
    | Policy.Lru | Policy.Fifo ->
      let cache =
        Cache.create ~line_words ?lines:(dense_lines spec ~line_words) ~policy ~capacity ()
      in
      record_walk
        (walk ?lru_lines:(lru_lines policy ~line_words capacity) ~line_words spec schedule
           (fun ~first_write:_ ~any_write ~count addr ->
             Cache.access_run cache ~write:any_write ~count addr));
      Cache.flush cache;
      Cache.stats cache
  in
  Cache.record_obs stats;
  {
    schedule;
    policy;
    capacity;
    stats;
    words_moved = Cache.words_moved ~line_words stats;
  }))

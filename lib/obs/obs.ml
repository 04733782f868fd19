(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* Log-bucketed latency histogram. Bucket [b] covers the nanosecond
   range [2^(b/4), 2^((b+1)/4)): four sub-buckets per octave, so any
   percentile estimate is within a factor of 2^(1/4) ~ 19% of the true
   value. 256 buckets cover [1ns, 2^64 ns); everything is an Atomic, so
   recording is lock-free (one bucket fetch-and-add plus the sum/count
   adds and a CAS-loop for the max). *)

let sub_buckets = 4
let num_buckets = 256

type hist = {
  hbuckets : int Atomic.t array;
  hcount : int Atomic.t;
  hsum : int Atomic.t; (* ns *)
  hmax : int Atomic.t; (* ns *)
}

let make_hist () =
  {
    hbuckets = Array.init num_buckets (fun _ -> Atomic.make 0);
    hcount = Atomic.make 0;
    hsum = Atomic.make 0;
    hmax = Atomic.make 0;
  }

let bucket_of_ns v =
  if v <= 1 then 0
  else
    min (num_buckets - 1)
      (int_of_float (float_of_int sub_buckets *. (log (float_of_int v) /. log 2.0)))

(* Geometric midpoint of bucket [b], in nanoseconds. *)
let bucket_mid b = Float.pow 2.0 ((float_of_int b +. 0.5) /. float_of_int sub_buckets)

let rec atomic_max cell v =
  let cur = Atomic.get cell in
  if v > cur && not (Atomic.compare_and_set cell cur v) then atomic_max cell v

let rec atomic_min cell v =
  let cur = Atomic.get cell in
  if v < cur && not (Atomic.compare_and_set cell cur v) then atomic_min cell v

(* Saturating accumulate: the sum cell pegs at [max_int] instead of
   wrapping negative when fed huge samples (e.g. repeated observations
   near [max_int] ns). Monotone, so a CAS loop suffices. *)
let rec atomic_add_sat cell v =
  let cur = Atomic.get cell in
  let sum = if v > 0 && cur > max_int - v then max_int else cur + v in
  if sum <> cur && not (Atomic.compare_and_set cell cur sum) then atomic_add_sat cell v

let hist_observe_ns h ns =
  let ns = max 0 ns in
  ignore (Atomic.fetch_and_add h.hbuckets.(bucket_of_ns ns) 1);
  ignore (Atomic.fetch_and_add h.hcount 1);
  atomic_add_sat h.hsum ns;
  atomic_max h.hmax ns

let hist_reset h =
  Array.iter (fun b -> Atomic.set b 0) h.hbuckets;
  Atomic.set h.hcount 0;
  Atomic.set h.hsum 0;
  Atomic.set h.hmax 0

(* ------------------------------------------------------------------ *)
(* Registries                                                          *)
(* ------------------------------------------------------------------ *)

type counter = { cell : int Atomic.t }

(* A gauge is a level, not a flow: it goes up and down (queue depth,
   in-flight requests, cache entries, idle domains). Besides the current
   value it tracks min/max watermarks since the last {!rewind_gauges},
   so a periodic exporter can report the excursion within each interval
   even when the instantaneous value at tick time looks calm. *)
type gauge = { gcur : int Atomic.t; gwmin : int Atomic.t; gwmax : int Atomic.t }

(* A timer is a histogram of nanosecond durations; total seconds and the
   call count are the histogram's sum and count, so every timer gets
   percentiles for free. 63-bit nanoseconds overflow after ~292 years of
   accumulated time (the sum saturates at [max_int] rather than wrap). *)
type timer = { th : hist }
type histogram = { hh : hist }

let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 64
let timers : (string, timer) Hashtbl.t = Hashtbl.create 64
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 64

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let find_or_register table name make =
  with_lock (fun () ->
    match Hashtbl.find_opt table name with
    | Some v -> v
    | None ->
      let v = make () in
      Hashtbl.add table name v;
      v)

let counter name = find_or_register counters name (fun () -> { cell = Atomic.make 0 })
let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.cell by)
let record_max c v = atomic_max c.cell v
let value c = Atomic.get c.cell

let gauge name =
  find_or_register gauges name (fun () ->
    { gcur = Atomic.make 0; gwmin = Atomic.make 0; gwmax = Atomic.make 0 })

let gauge_watermarks g v =
  atomic_min g.gwmin v;
  atomic_max g.gwmax v

let set_gauge g v =
  Atomic.set g.gcur v;
  gauge_watermarks g v

let add_gauge g by =
  let v = Atomic.fetch_and_add g.gcur by + by in
  gauge_watermarks g v

let gauge_value g = Atomic.get g.gcur

(* Start a fresh min/max window on every gauge: both watermarks collapse
   to the current value. The telemetry exporter calls this after each
   snapshot so each exported interval carries its own excursion. *)
let rewind_gauges () =
  with_lock (fun () ->
    Hashtbl.iter
      (fun _ g ->
        let v = Atomic.get g.gcur in
        Atomic.set g.gwmin v;
        Atomic.set g.gwmax v)
      gauges)

let timer name = find_or_register timers name (fun () -> { th = make_hist () })
let histogram name = find_or_register histograms name (fun () -> { hh = make_hist () })

let add_seconds t s = hist_observe_ns t.th (int_of_float (s *. 1e9))

let time t f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> add_seconds t (Unix.gettimeofday () -. t0)) f

let calls t = Atomic.get t.th.hcount
let seconds t = float_of_int (Atomic.get t.th.hsum) /. 1e9

let observe_ns h ns = hist_observe_ns h.hh ns
let observe_s h s = hist_observe_ns h.hh (int_of_float (s *. 1e9))
let observations h = Atomic.get h.hh.hcount

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type hist_snap = {
  dbuckets : int array;
  dcount : int;
  dsum_ns : int;
  dmax_ns : int;
}

type timer_stat = { tcalls : int; tseconds : float; tdist : hist_snap }
type gauge_stat = { gvalue : int; gmin : int; gmax : int }

type snapshot = {
  scounters : (string * int) list;
  sgauges : (string * gauge_stat) list;
  stimers : (string * timer_stat) list;
  shists : (string * hist_snap) list;
}

let snap_hist h =
  {
    dbuckets = Array.map Atomic.get h.hbuckets;
    dcount = Atomic.get h.hcount;
    dsum_ns = Atomic.get h.hsum;
    dmax_ns = Atomic.get h.hmax;
  }

let timer_stat_of_snap d =
  { tcalls = d.dcount; tseconds = float_of_int d.dsum_ns /. 1e9; tdist = d }

let by_name (a, _) (b, _) = String.compare a b

(* Rank-based percentile estimate from the log buckets: the geometric
   midpoint of the bucket holding the p-th sample, clamped to the
   recorded max. [p] in [0, 100]. *)
let percentile d p =
  if d.dcount = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (ceil (p /. 100.0 *. float_of_int d.dcount)) in
      max 1 (min d.dcount r)
    in
    let b = ref 0 and cum = ref 0 in
    (try
       for i = 0 to num_buckets - 1 do
         cum := !cum + d.dbuckets.(i);
         if !cum >= rank then begin
           b := i;
           raise Exit
         end
       done
     with Exit -> ());
    Float.min (bucket_mid !b) (float_of_int d.dmax_ns)
  end

let mean_ns d = if d.dcount = 0 then 0.0 else float_of_int d.dsum_ns /. float_of_int d.dcount

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  (* Span-level tracing with zero locking on the hot path. Each domain
     owns a ring buffer found through domain-local storage: begin/end
     touch only that ring (plus two global fetch-and-adds for the span
     id), so worker domains never contend. The registry mutex is taken
     once per domain (ring creation) and on the cold export/reset
     paths only. Ring fields are written by the owning domain alone;
     export reads them after the workers have joined. *)

  type event = {
    ename : string;
    ts_ns : int; (* span start, absolute *)
    dur_ns : int;
    sid : int;
    parent : int; (* 0 = root *)
    tid : int;
    earg : int; (* caller-supplied tag, -1 = none *)
  }

  type ring = {
    rtid : int;
    mutable rname : string;
    buf : event array;
    mutable widx : int; (* total events ever written; slot = widx mod cap *)
    mutable stack : int list; (* sids of open spans, innermost first *)
  }

  let enabled = Atomic.make false
  let epoch_ns = Atomic.make 0
  let next_sid = Atomic.make 1
  let next_tid = Atomic.make 0
  let capacity = ref 16384
  let rings_lock = Mutex.create ()
  let rings : ring list ref = ref []

  let null_event =
    { ename = ""; ts_ns = 0; dur_ns = 0; sid = 0; parent = 0; tid = 0; earg = -1 }

  let dls_ring : ring option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  (* Ring wrap-around overwrites the oldest span silently; surface each
     overwrite as a counter so drops are visible in --metrics and the
     telemetry stream, not only in the Chrome export's missing spans. *)
  let dropped_counter = counter "obs.trace.dropped"

  let make_ring () =
    let tid = Atomic.fetch_and_add next_tid 1 in
    let r =
      {
        rtid = tid;
        rname = (if tid = 0 then "main" else Printf.sprintf "domain-%d" tid);
        buf = Array.make !capacity null_event;
        widx = 0;
        stack = [];
      }
    in
    Mutex.lock rings_lock;
    rings := r :: !rings;
    Mutex.unlock rings_lock;
    r

  let get_ring () =
    let slot = Domain.DLS.get dls_ring in
    match !slot with
    | Some r -> r
    | None ->
      let r = make_ring () in
      slot := Some r;
      r

  let set_capacity n = capacity := max 16 n
  let is_enabled () = Atomic.get enabled
  let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

  let enable () =
    if Atomic.get epoch_ns = 0 then Atomic.set epoch_ns (now_ns ());
    Atomic.set enabled true

  let disable () = Atomic.set enabled false

  let set_lane_name name =
    if Atomic.get enabled then (get_ring ()).rname <- name

  type span = { span_sid : int; span_name : string; span_start : int; span_parent : int;
                span_arg : int }

  let null_span = { span_sid = -1; span_name = ""; span_start = 0; span_parent = 0;
                    span_arg = -1 }

  let begin_span ?(arg = -1) name =
    if not (Atomic.get enabled) then null_span
    else begin
      let r = get_ring () in
      let sid = Atomic.fetch_and_add next_sid 1 in
      let parent = match r.stack with [] -> 0 | p :: _ -> p in
      r.stack <- sid :: r.stack;
      { span_sid = sid; span_name = name; span_start = now_ns (); span_parent = parent;
        span_arg = arg }
    end

  let end_span s =
    (* No [enabled] check: if the begin ran, the ring exists and the event
       is recorded even when tracing was switched off mid-span. *)
    if s.span_sid >= 0 then begin
      let r = get_ring () in
      let t1 = now_ns () in
      (match r.stack with
      | top :: rest when top = s.span_sid -> r.stack <- rest
      | _ -> r.stack <- List.filter (fun x -> x <> s.span_sid) r.stack);
      let e =
        {
          ename = s.span_name;
          ts_ns = s.span_start;
          dur_ns = max 0 (t1 - s.span_start);
          sid = s.span_sid;
          parent = s.span_parent;
          tid = r.rtid;
          earg = s.span_arg;
        }
      in
      let cap = Array.length r.buf in
      if r.widx >= cap then incr dropped_counter;
      r.buf.(r.widx mod cap) <- e;
      r.widx <- r.widx + 1
    end

  let with_span ?arg name f =
    let s = begin_span ?arg name in
    Fun.protect ~finally:(fun () -> end_span s) f

  let reset () =
    Mutex.lock rings_lock;
    List.iter
      (fun r ->
        r.widx <- 0;
        r.stack <- [])
      !rings;
    Mutex.unlock rings_lock;
    Atomic.set dropped_counter.cell 0;
    Atomic.set next_sid 1;
    Atomic.set epoch_ns (if Atomic.get enabled then now_ns () else 0)

  let span_count () =
    Mutex.lock rings_lock;
    let n = List.fold_left (fun acc r -> acc + r.widx) 0 !rings in
    Mutex.unlock rings_lock;
    n

  let dropped () =
    Mutex.lock rings_lock;
    let n =
      List.fold_left (fun acc r -> acc + max 0 (r.widx - Array.length r.buf)) 0 !rings
    in
    Mutex.unlock rings_lock;
    n

  (* All retained events, oldest-first by start timestamp. *)
  let events () =
    Mutex.lock rings_lock;
    let rs = !rings in
    Mutex.unlock rings_lock;
    let collected =
      List.concat_map
        (fun r ->
          let cap = Array.length r.buf in
          let n = min r.widx cap in
          List.init n (fun i ->
            (* oldest retained slot first when the ring has wrapped *)
            r.buf.((r.widx - n + i) mod cap)))
        rs
    in
    List.sort (fun a b -> compare a.ts_ns b.ts_ns) collected

  let lanes () =
    Mutex.lock rings_lock;
    let rs = !rings in
    Mutex.unlock rings_lock;
    List.sort compare (List.filter_map (fun r -> if r.widx > 0 then Some (r.rtid, r.rname) else None) rs)

  (* Chrome trace-event JSON (the chrome://tracing / Perfetto format):
     one "M" thread_name metadata record per lane, then every span as a
     complete "X" event sorted by start time, timestamps in microseconds
     relative to {!enable}. *)
  let export_json () =
    let epoch = Atomic.get epoch_ns in
    let evs = events () in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    let first = ref true in
    let emit s =
      if !first then first := false else Buffer.add_char buf ',';
      Buffer.add_string buf s
    in
    List.iter
      (fun (tid, name) ->
        emit
          (Printf.sprintf
             "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":%s}}"
             tid (Jsonlite.quote name)))
      (lanes ());
    List.iter
      (fun e ->
        let ts_us = float_of_int (max 0 (e.ts_ns - epoch)) /. 1e3 in
        let dur_us = float_of_int e.dur_ns /. 1e3 in
        let args =
          if e.earg >= 0 then
            Printf.sprintf "{\"sid\":%d,\"parent\":%d,\"i\":%d}" e.sid e.parent e.earg
          else Printf.sprintf "{\"sid\":%d,\"parent\":%d}" e.sid e.parent
        in
        emit
          (Printf.sprintf
             "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":%s,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}"
             e.tid (Jsonlite.quote e.ename) ts_us dur_us args))
      evs;
    Buffer.add_string buf "]}";
    Buffer.contents buf

  let write_file path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        output_string oc (export_json ());
        output_char oc '\n')
end

(* ------------------------------------------------------------------ *)
(* Snapshot / reset                                                    *)
(* ------------------------------------------------------------------ *)

let snapshot () =
  with_lock (fun () ->
    {
      scounters =
        Hashtbl.fold (fun name c acc -> (name, Atomic.get c.cell) :: acc) counters []
        |> List.sort by_name;
      sgauges =
        Hashtbl.fold
          (fun name g acc ->
            let v = Atomic.get g.gcur in
            (* Clamp so a watermark read torn against a concurrent update
               never inverts the invariant gmin <= gvalue <= gmax. *)
            ( name,
              {
                gvalue = v;
                gmin = min v (Atomic.get g.gwmin);
                gmax = max v (Atomic.get g.gwmax);
              } )
            :: acc)
          gauges []
        |> List.sort by_name;
      stimers =
        Hashtbl.fold
          (fun name t acc -> (name, timer_stat_of_snap (snap_hist t.th)) :: acc)
          timers []
        |> List.sort by_name;
      shists =
        Hashtbl.fold (fun name h acc -> (name, snap_hist h.hh) :: acc) histograms []
        |> List.sort by_name;
    })

let reset () =
  with_lock (fun () ->
    Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) counters;
    Hashtbl.iter
      (fun _ g ->
        Atomic.set g.gcur 0;
        Atomic.set g.gwmin 0;
        Atomic.set g.gwmax 0)
      gauges;
    Hashtbl.iter (fun _ t -> hist_reset t.th) timers;
    Hashtbl.iter (fun _ h -> hist_reset h.hh) histograms);
  Trace.reset ()

(* ------------------------------------------------------------------ *)
(* Snapshot diff                                                       *)
(* ------------------------------------------------------------------ *)

(* [b - a] per cell, saturating at 0 (a reset between the snapshots, or a
   high-watermark gauge that climbed, keeps the [b] value rather than
   going negative). The max of a distribution delta is unknowable from
   bucket counts alone, so the diff keeps [b]'s max: an upper bound on
   the true window max. *)
let diff_hist a b =
  match a with
  | None -> b
  | Some a ->
    let sub x y = if y > x then x else x - y in
    {
      dbuckets = Array.mapi (fun i v -> sub v a.dbuckets.(i)) b.dbuckets;
      dcount = sub b.dcount a.dcount;
      dsum_ns = sub b.dsum_ns a.dsum_ns;
      dmax_ns = b.dmax_ns;
    }

let diff a b =
  let sub x y = if y > x then x else x - y in
  {
    scounters =
      List.map
        (fun (name, v) ->
          (name, sub v (Option.value ~default:0 (List.assoc_opt name a.scounters))))
        b.scounters;
    (* Gauges are levels, not flows: a windowed delta has no meaning, so
       the diff keeps [b]'s value and watermarks verbatim. *)
    sgauges = b.sgauges;
    stimers =
      List.map
        (fun (name, t) ->
          let prev = Option.map (fun p -> p.tdist) (List.assoc_opt name a.stimers) in
          (name, timer_stat_of_snap (diff_hist prev t.tdist)))
        b.stimers;
    shists =
      List.map
        (fun (name, d) -> (name, diff_hist (List.assoc_opt name a.shists) d))
        b.shists;
  }

(* ------------------------------------------------------------------ *)
(* Pretty-printing                                                     *)
(* ------------------------------------------------------------------ *)

(* 1234567 -> "1,234,567" *)
let group_int n =
  let s = string_of_int (abs n) in
  let len = String.length s in
  let buf = Buffer.create (len + (len / 3) + 1) in
  if n < 0 then Buffer.add_char buf '-';
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char buf ',';
      Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Human duration from nanoseconds: "412ns", "3.4us", "12.8ms", "1.25s". *)
let pp_dur_ns ns =
  if ns < 0.5 then "0"
  else if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.1fms" (ns /. 1e6)
  else Printf.sprintf "%.2fs" (ns /. 1e9)

let dist_columns d =
  ( pp_dur_ns (mean_ns d),
    pp_dur_ns (percentile d 50.0),
    pp_dur_ns (percentile d 90.0),
    pp_dur_ns (percentile d 99.0),
    pp_dur_ns (float_of_int d.dmax_ns) )

let pp_dist_header fmt label =
  Format.fprintf fmt "%-36s %12s %12s %9s %9s %9s %9s %9s" label "calls" "seconds" "mean"
    "p50" "p90" "p99" "max"

let pp_dist_row fmt name d =
  let mean, p50, p90, p99, mx = dist_columns d in
  Format.fprintf fmt "@,  %-34s %12s %12.6f %9s %9s %9s %9s %9s" name (group_int d.dcount)
    (float_of_int d.dsum_ns /. 1e9)
    mean p50 p90 p99 mx

let pp fmt s =
  Format.fprintf fmt "@[<v>";
  let sections = ref 0 in
  let sep () =
    if !sections > 0 then Format.fprintf fmt "@,";
    Stdlib.incr sections
  in
  if s.scounters <> [] then begin
    sep ();
    Format.fprintf fmt "counters:";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "@,  %-34s %14s" name (group_int v))
      s.scounters
  end;
  if s.sgauges <> [] then begin
    sep ();
    Format.fprintf fmt "%-36s %12s %9s %9s" "gauges:" "value" "min" "max";
    List.iter
      (fun (name, g) ->
        Format.fprintf fmt "@,  %-34s %12s %9s %9s" name (group_int g.gvalue)
          (group_int g.gmin) (group_int g.gmax))
      s.sgauges
  end;
  if s.stimers <> [] then begin
    sep ();
    pp_dist_header fmt "timers:";
    List.iter (fun (name, t) -> pp_dist_row fmt name t.tdist) s.stimers
  end;
  if s.shists <> [] then begin
    sep ();
    pp_dist_header fmt "histograms:";
    List.iter (fun (name, d) -> pp_dist_row fmt name d) s.shists
  end;
  if !sections = 0 then Format.fprintf fmt "(no metrics recorded)";
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let json_of_dist d =
  Printf.sprintf
    "\"mean_s\":%.9f,\"p50_s\":%.9f,\"p90_s\":%.9f,\"p99_s\":%.9f,\"max_s\":%.9f"
    (mean_ns d /. 1e9)
    (percentile d 50.0 /. 1e9)
    (percentile d 90.0 /. 1e9)
    (percentile d 99.0 /. 1e9)
    (float_of_int d.dmax_ns /. 1e9)

let to_json s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"counters\":{";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%s:%d" (Jsonlite.quote name) v))
    s.scounters;
  Buffer.add_string buf "},\"gauges\":{";
  List.iteri
    (fun i (name, g) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "%s:{\"value\":%d,\"min\":%d,\"max\":%d}" (Jsonlite.quote name)
           g.gvalue g.gmin g.gmax))
    s.sgauges;
  Buffer.add_string buf "},\"timers\":{";
  List.iteri
    (fun i (name, t) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "%s:{\"calls\":%d,\"seconds\":%.6f,%s}" (Jsonlite.quote name)
           t.tcalls t.tseconds (json_of_dist t.tdist)))
    s.stimers;
  Buffer.add_string buf "},\"histograms\":{";
  List.iteri
    (fun i (name, d) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "%s:{\"count\":%d,%s}" (Jsonlite.quote name) d.dcount
           (json_of_dist d)))
    s.shists;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Structured logging                                                  *)
(* ------------------------------------------------------------------ *)

module Log = struct
  (* Leveled JSONL event log. Disabled (no sink) by default: an emit
     then costs one atomic load and one branch, so call sites can log
     unconditionally. Lines are formatted entirely outside the sink
     mutex; the lock covers only the final write, so worker domains
     never serialize on string formatting. *)

  type level = Debug | Info | Warn | Error

  let rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
  let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

  let level_of_string s =
    match String.lowercase_ascii s with
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" | "warning" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  type field = string * [ `S of string | `I of int | `F of float | `B of bool ]

  (* [min_rank] is read on every emit; the sink pointer is only mutated
     under [sink_lock] but read without it (a torn read is impossible for
     an immutable record pointer in OCaml). *)
  let min_rank = Atomic.make (rank Info)
  let sink_lock = Mutex.create ()
  let sink : (string -> unit) option ref = ref None
  let owned_chan : out_channel option ref = ref None
  let lines_counter = counter "obs.log.lines"

  let set_level l = Atomic.set min_rank (rank l)

  let current_level () =
    match Atomic.get min_rank with
    | 0 -> Debug
    | 1 -> Info
    | 2 -> Warn
    | _ -> Error

  let close_owned () =
    match !owned_chan with
    | Some oc ->
      owned_chan := None;
      (try close_out oc with Sys_error _ -> ())
    | None -> ()

  let disable () =
    Mutex.lock sink_lock;
    sink := None;
    close_owned ();
    Mutex.unlock sink_lock

  let to_channel oc =
    Mutex.lock sink_lock;
    close_owned ();
    sink := Some (fun line ->
      output_string oc line;
      output_char oc '\n';
      flush oc);
    Mutex.unlock sink_lock

  let to_file path =
    match open_out_gen [ Open_append; Open_creat ] 0o644 path with
    | exception Sys_error msg -> Result.error msg
    | oc ->
      Mutex.lock sink_lock;
      close_owned ();
      owned_chan := Some oc;
      sink := Some (fun line ->
        output_string oc line;
        output_char oc '\n';
        flush oc);
      Mutex.unlock sink_lock;
      Result.ok ()

  let is_enabled l = !sink <> None && rank l >= Atomic.get min_rank

  (* Per-domain ambient correlation id: serve mints one per request and
     wraps the pipeline call, so any log line emitted underneath carries
     the request's id without threading it through every signature. *)
  let dls_corr : string option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

  let corr () = !(Domain.DLS.get dls_corr)

  let with_corr id f =
    let slot = Domain.DLS.get dls_corr in
    let saved = !slot in
    slot := Some id;
    Fun.protect ~finally:(fun () -> slot := saved) f

  let add_field buf (k, v) =
    Buffer.add_char buf ',';
    Buffer.add_string buf (Jsonlite.quote k);
    Buffer.add_char buf ':';
    match v with
    | `S s -> Buffer.add_string buf (Jsonlite.quote s)
    | `I i -> Buffer.add_string buf (string_of_int i)
    | `F f ->
      (* %g would lose precision on big counters; %.6f covers ms-resolution
         timings and jsonlite parses it back exactly enough. *)
      Buffer.add_string buf (Printf.sprintf "%.6f" f)
    | `B b -> Buffer.add_string buf (if b then "true" else "false")

  let format_line ~ts ~level ~event ~corr fields =
    let buf = Buffer.create 128 in
    Buffer.add_string buf (Printf.sprintf "{\"ts\":%.6f,\"level\":\"%s\",\"event\":%s" ts
       (level_name level) (Jsonlite.quote event));
    (match corr with
    | Some id ->
      Buffer.add_string buf ",\"corr\":";
      Buffer.add_string buf (Jsonlite.quote id)
    | None -> ());
    List.iter (add_field buf) fields;
    Buffer.add_char buf '}';
    Buffer.contents buf

  let log level event fields =
    if is_enabled level then begin
      let line =
        format_line ~ts:(Unix.gettimeofday ()) ~level ~event ~corr:(corr ()) fields
      in
      incr lines_counter;
      Mutex.lock sink_lock;
      (match !sink with Some write -> (try write line with Sys_error _ -> ()) | None -> ());
      Mutex.unlock sink_lock
    end

  let debug event fields = log Debug event fields
  let info event fields = log Info event fields
  let warn event fields = log Warn event fields
  let error event fields = log Error event fields
end

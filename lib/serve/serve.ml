type event = Line of string | Oversized | Wait | Eof

(* A request line may not grow past this many bytes: the reader stops
   buffering it, skips to its newline and reports it as [Oversized]. *)
let max_line_bytes = 1 lsl 20

type config = {
  jobs : int;
  queue_capacity : int;
  default_deadline_s : float option;
  slow_s : float option;
}

let default_config () =
  {
    jobs = Pool.default_jobs ();
    queue_capacity = 512;
    default_deadline_s = None;
    slow_s = None;
  }

let c_requests = Obs.counter "serve.requests"
let c_responses = Obs.counter "serve.responses"
let c_batches = Obs.counter "serve.batches"
let c_errors = Obs.counter "serve.errors"
let c_parse = Obs.counter "serve.parse_errors"
let c_deadline = Obs.counter "serve.deadline_exceeded"
let c_overloaded = Obs.counter "serve.rejected_overloaded"
let c_connections = Obs.counter "serve.connections"
let c_batch_max = Obs.counter "serve.batch_size_max"
let c_queue_max = Obs.counter "serve.queue_depth_max"
let t_batch = Obs.timer "serve.batch"
let t_request = Obs.timer "serve.request"

(* Per-class service latency: the split the scheduler exists for.
   Analytic requests must stay in the sub-millisecond mode whatever
   simulations share the batch; these histograms are where to look. *)
let t_request_analytic = Obs.timer "serve.request.analytic"
let t_request_simulation = Obs.timer "serve.request.simulation"

(* Live levels for the dashboard: how deep the current batch cycle is
   (admitted + rejected lines being worked, plus the per-class split of
   the admitted), how many requests are executing on pool domains right
   now, and how many client connections are open. *)
let g_queue = Obs.gauge "serve.queue_depth"
let g_queue_analytic = Obs.gauge "serve.queue_depth.analytic"
let g_queue_simulation = Obs.gauge "serve.queue_depth.simulation"
let g_inflight = Obs.gauge "serve.inflight"
let g_open = Obs.gauge "serve.open_connections"

(* Correlation ids minted for requests that arrive without one: "srv-N",
   N scoped to the session (one stdin/stdout stream, or one accepted
   connection) in arrival order — every client sees its own srv-1,
   srv-2, ... sequence however many neighbors the daemon is serving, so
   a connection's transcript is byte-identical to the one-shot CLI's.
   The minted id is echoed in the response and stamps every log line the
   request produces. *)
type session = { mint : int Atomic.t }

let new_session () = { mint = Atomic.make 1 }
let mint s = Printf.sprintf "srv-%d" (Atomic.fetch_and_add s.mint 1)
let ensure_id s = function Some id -> id | None -> mint s

let count_error err =
  Obs.incr c_errors;
  match (err : Engine_error.t) with
  | Parse_error _ -> Obs.incr c_parse
  | Deadline_exceeded _ -> Obs.incr c_deadline
  | Overloaded _ -> Obs.incr c_overloaded
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Admission                                                          *)
(* ------------------------------------------------------------------ *)

(* Requests are decoded — and classified — at admission, not at
   execution: the class decides which queue the request waits in, so it
   has to be known up front. Analytic = no simulations requested (plan /
   LP / closed-form answers, sub-millisecond); everything else is
   Simulation class. Compile requests are analytic: plan compilation is
   bounded by the enumeration budget and serves the fast path. *)

type item = {
  it_id : string;
  it_v : int;  (** wire version to stamp on the response envelope *)
  it_class : Pool.priority;
  it_warnings : Serve_protocol.warning list;
  it_work : (Request.t * float option, Engine_error.t) result;
      (** decoded request plus its absolute deadline, or the decode error *)
  it_emit : string -> unit;  (** the connection the response goes back to *)
}

let classify_request (req : Request.t) =
  match req.Request.body with
  | Request.Compile | Request.Partition _ -> Pool.Analytic
  | Request.Analyze { sims; _ } | Request.Sweep { sims; _ } ->
    if sims = [] then Pool.Analytic else Pool.Simulation

let error_item session ~emit ~id ~v err =
  { it_id = ensure_id session id; it_v = v; it_class = Pool.Analytic;
    it_warnings = []; it_work = Error err; it_emit = emit }

let decode_line cfg session ~admitted_at ~emit line =
  match Request.decode line with
  | Error { Request.err_id; err_v; err } -> error_item session ~emit ~id:err_id ~v:err_v err
  | Ok req ->
    let budget =
      match req.Request.deadline_s with
      | Some _ as b -> b
      | None -> cfg.default_deadline_s
    in
    {
      it_id = ensure_id session req.Request.id;
      it_v = req.Request.v;
      it_class = classify_request req;
      it_warnings = req.Request.warnings;
      it_work = Ok (req, Option.map (fun b -> admitted_at +. b) budget);
      it_emit = emit;
    }

(* Per-class admission: each class has [queue_capacity] seats per batch
   cycle, so a flood of simulation requests can exhaust its own queue
   without costing analytic requests theirs (and vice versa). *)
type admission = {
  mutable adm_analytic : int;
  mutable adm_simulation : int;
  mutable adm_rejected : int;
  mutable adm_admitted_rev : item list;
  mutable adm_rejected_rev : (string * int * (string -> unit)) list;
}

let new_admission () =
  {
    adm_analytic = 0;
    adm_simulation = 0;
    adm_rejected = 0;
    adm_admitted_rev = [];
    adm_rejected_rev = [];
  }

let admit cfg adm item =
  let seats =
    match item.it_class with
    | Pool.Analytic -> adm.adm_analytic
    | Pool.Simulation -> adm.adm_simulation
  in
  if seats < cfg.queue_capacity then begin
    (match item.it_class with
    | Pool.Analytic -> adm.adm_analytic <- adm.adm_analytic + 1
    | Pool.Simulation -> adm.adm_simulation <- adm.adm_simulation + 1);
    adm.adm_admitted_rev <- item :: adm.adm_admitted_rev
  end
  else begin
    adm.adm_rejected <- adm.adm_rejected + 1;
    adm.adm_rejected_rev <- (item.it_id, item.it_v, item.it_emit) :: adm.adm_rejected_rev
  end

(* A line the transport discarded unread is answered like a request that
   failed to decode. *)
let admit_event cfg adm session ~admitted_at ~emit = function
  | Line l -> admit cfg adm (decode_line cfg session ~admitted_at ~emit l)
  | Oversized ->
    admit cfg adm
      (error_item session ~emit ~id:None ~v:1
         (Engine_error.Invalid_request
            (Printf.sprintf "request line longer than %d bytes" max_line_bytes)))
  | Wait | Eof -> ()

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* What the request log says about one finished request. Written by
   [process] in response order, not by the worker that finished it, so
   the log lines of a batch come out in the same order as its responses
   whatever the pool width. *)
type done_log = {
  l_op : string;
  l_seconds : float;  (** admission to completion, measured by the worker *)
  l_stages : (string * float) list;  (** per-stage wall times, for the slow log *)
}

let log_request cfg item res l =
  Obs.Log.with_corr item.it_id @@ fun () ->
  let status = match res with Ok _ -> "ok" | Error e -> Engine_error.code e in
  Obs.Log.info "serve.request"
    [
      ("id", `S item.it_id);
      ("op", `S l.l_op);
      ("status", `S status);
      ("ms", `F (1e3 *. l.l_seconds));
    ];
  (* The slow-request log carries the request's own per-stage wall
     times (the same deltas a "timings":true client would receive), so
     triage can tell an LP-bound request from a simulation-bound one
     without re-running it. *)
  match cfg.slow_s with
  | Some s when l.l_seconds >= s ->
    Obs.Log.warn "serve.slow_request"
      (("id", `S item.it_id) :: ("op", `S l.l_op) :: ("ms", `F (1e3 *. l.l_seconds))
      :: List.map (fun (stage, d) -> (stage ^ "_ms", `F (1e3 *. d))) l.l_stages)
  | _ -> ()

(* One admitted request as a staged pool task: the analytic half runs at
   the item's class, and a simulation-carrying request returns [More] so
   its heavy tail re-queues at Simulation class (Pipeline.run_staged).
   The serve-level latency clock spans admission-to-finish across both
   stages and stops here, at completion; the ambient correlation id is
   re-established inside the continuation because it is domain-local and
   the tail may run on a different worker. *)
let run_one item =
  Obs.add_gauge g_inflight 1;
  let t0 = Unix.gettimeofday () in
  let finish ~op res stages =
    let dt = Unix.gettimeofday () -. t0 in
    Obs.add_seconds t_request dt;
    Obs.add_seconds
      (match item.it_class with
      | Pool.Analytic -> t_request_analytic
      | Pool.Simulation -> t_request_simulation)
      dt;
    Obs.add_gauge g_inflight (-1);
    (item, res, { l_op = op; l_seconds = dt; l_stages = stages })
  in
  Obs.Log.with_corr item.it_id @@ fun () ->
  match item.it_work with
  | Error err -> Pool.Done (finish ~op:"invalid" (Error err) [])
  | Ok (req, deadline) -> (
    let spec = req.Request.spec in
    match req.Request.body with
    | Request.Compile ->
      Pool.Done
        (finish ~op:"compile"
           (Result.map (fun plan -> `Plan (Tiling_plan.to_json plan)) (Pipeline.plan_of spec))
           [])
    | Request.Partition { procs; m_local; net } ->
      Pool.Done
        (finish ~op:"partition"
           (Result.map
              (fun sol -> `Partition (Partition_solve.to_json sol))
              (Pipeline.partition_checked ?deadline spec ~p:procs ~m_local ~net))
           [])
    | Request.Sweep { ms; sims; shared; timings } ->
      (* One pool task for the whole sweep: the points share the memo
         caches, each report renders exactly as the one-shot CLI's, and
         the first failing size fails the request. *)
      Pool.Done
        (finish ~op:"sweep"
           (List.fold_left
              (fun acc m ->
                match acc with
                | Error _ as e -> e
                | Ok rendered -> (
                  match
                    Pipeline.run_checked ?deadline
                      (Pipeline.request ~sims ~shared spec ~m)
                  with
                  | Error e -> Error e
                  | Ok rep -> Ok (Report.to_json ~timings rep :: rendered)))
              (Ok []) ms
           |> Result.map (fun rendered -> `Reports (List.rev rendered)))
           [])
    | Request.Analyze { m; sims; shared; timings } -> (
      let preq = Pipeline.request ~sims ~shared spec ~m in
      let render checked =
        let stage_times =
          match checked with Ok rep -> rep.Report.timings | Error _ -> []
        in
        finish ~op:"analyze"
          (Result.map (fun rep -> `Report (Report.to_json ~timings rep)) checked)
          stage_times
      in
      match Pipeline.run_staged ?deadline preq with
      | Pool.Done checked -> Pool.Done (render checked)
      | Pool.More f ->
        Pool.More (fun () -> Obs.Log.with_corr item.it_id (fun () -> render (f ())))))

(* One batch: run every admitted item through the staged pool, then emit
   one response per line in arrival order — admitted first, overload
   rejections after. Each response goes back to the connection it came
   from; with a single session the two are the same stream. *)
let process cfg admitted rejected =
  Obs.incr c_batches;
  let n_admitted = List.length admitted and n_rejected = List.length rejected in
  let depth = n_admitted + n_rejected in
  Obs.incr ~by:depth c_requests;
  Obs.record_max c_batch_max n_admitted;
  Obs.record_max c_queue_max depth;
  Obs.set_gauge g_queue depth;
  let n_analytic =
    List.fold_left
      (fun n i -> if i.it_class = Pool.Analytic then n + 1 else n)
      0 admitted
  in
  Obs.set_gauge g_queue_analytic n_analytic;
  Obs.set_gauge g_queue_simulation (n_admitted - n_analytic);
  Obs.Trace.with_span "serve.batch" @@ fun () ->
  let batch_t0 = Unix.gettimeofday () in
  Obs.time t_batch @@ fun () ->
  let outcomes =
    Pool.map_staged_list ~jobs:cfg.jobs ~classify:(fun i -> i.it_class) run_one admitted
  in
  List.iter
    (fun (item, res, log) ->
      log_request cfg item res log;
      let id = Some item.it_id in
      let v = item.it_v and warnings = item.it_warnings in
      let line =
        match res with
        | Ok (`Report report_json) ->
          Serve_protocol.ok_response ~warnings ~v ~id ~report_json ()
        | Ok (`Reports report_jsons) ->
          Serve_protocol.sweep_response ~warnings ~v ~id ~report_jsons ()
        | Ok (`Plan plan_json) ->
          Serve_protocol.plan_response ~warnings ~v ~id ~plan_json ()
        | Ok (`Partition partition_json) ->
          Serve_protocol.partition_response ~warnings ~v ~id ~partition_json ()
        | Error err ->
          count_error err;
          Serve_protocol.error_response ~v ~id err
      in
      Obs.incr c_responses;
      item.it_emit line)
    outcomes;
  List.iter
    (fun (id, v, emit) ->
      let err = Engine_error.Overloaded { capacity = cfg.queue_capacity } in
      count_error err;
      Obs.incr c_responses;
      Obs.Log.warn "serve.overloaded"
        [ ("id", `S id); ("capacity", `I cfg.queue_capacity) ];
      emit (Serve_protocol.error_response ~v ~id:(Some id) err))
    rejected;
  Obs.set_gauge g_queue 0;
  Obs.set_gauge g_queue_analytic 0;
  Obs.set_gauge g_queue_simulation 0;
  Obs.Log.debug "serve.batch"
    [
      ("admitted", `I n_admitted);
      ("rejected", `I n_rejected);
      ("ms", `F (1e3 *. (Unix.gettimeofday () -. batch_t0)));
    ]

let serve ?(stop = fun () -> false) cfg ~next ~emit =
  let session = new_session () in
  let rec loop () =
    if stop () then ()
    else
      match next ~block:true with
      | Eof -> ()
      | Wait -> loop () (* interrupted: re-check [stop] and retry *)
      | (Line _ | Oversized) as first ->
        (* Drain what is already waiting into this cycle's batch. Reads
           per cycle are bounded (capacity admitted per class + capacity
           rejected); anything beyond stays in the transport's buffer. *)
        let admitted_at = Unix.gettimeofday () in
        let adm = new_admission () in
        admit_event cfg adm session ~admitted_at ~emit first;
        let saw_eof = ref false in
        let draining = ref true in
        while !draining do
          if adm.adm_rejected >= cfg.queue_capacity then draining := false
          else
            match next ~block:false with
            | Wait -> draining := false
            | Eof ->
              saw_eof := true;
              draining := false
            | (Line _ | Oversized) as ev -> admit_event cfg adm session ~admitted_at ~emit ev
        done;
        process cfg (List.rev adm.adm_admitted_rev) (List.rev adm.adm_rejected_rev);
        if !saw_eof then () else loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Transports                                                         *)
(* ------------------------------------------------------------------ *)

let reader_of_fd fd =
  let chunk = Bytes.create 65536 in
  let pending = Queue.create () in
  let partial = Buffer.create 256 in
  let skipping = ref false (* inside an oversized line: drop to its newline *) in
  let eof = ref false in
  let add_segment lo hi =
    if not !skipping then
      if Buffer.length partial + (hi - lo) > max_line_bytes then begin
        Buffer.clear partial;
        skipping := true;
        Queue.add Oversized pending
      end
      else Buffer.add_subbytes partial chunk lo (hi - lo)
  in
  let push_chunk n =
    let start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        add_segment !start i;
        if !skipping then skipping := false
        else begin
          Queue.add (Line (Buffer.contents partial)) pending;
          Buffer.clear partial
        end;
        start := i + 1
      end
    done;
    add_segment !start n
  in
  (* `Progress: bytes consumed (or EOF reached); `Would_block; `Interrupted *)
  let try_read ~block =
    let ready =
      block
      ||
      match Unix.select [ fd ] [] [] 0.0 with
      | [], _, _ -> false
      | _ -> true
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
    in
    if not ready then `Would_block
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | 0 ->
        eof := true;
        `Progress
      | n ->
        push_chunk n;
        `Progress
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Interrupted
  in
  fun ~block ->
    let rec go () =
      if not (Queue.is_empty pending) then Queue.pop pending
      else if !eof then
        if Buffer.length partial > 0 then begin
          (* final line without a trailing newline *)
          let l = Buffer.contents partial in
          Buffer.clear partial;
          Line l
        end
        else Eof
      else
        match try_read ~block with
        | `Would_block | `Interrupted -> Wait
        | `Progress -> go ()
    in
    go ()

let write_line fd s =
  let b = Bytes.of_string (s ^ "\n") in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    match Unix.write fd b !off (len - !off) with
    | k -> off := !off + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let run_pipe ?stop cfg =
  try serve ?stop cfg ~next:(reader_of_fd Unix.stdin) ~emit:(write_line Unix.stdout)
  with Unix.Unix_error (Unix.EPIPE, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* The multi-client daemon                                            *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_fd : Unix.file_descr;
  c_next : block:bool -> event;
  c_session : session;
  c_num : int;
  mutable c_eof : bool;  (** client finished sending; close after replying *)
  mutable c_dead : bool;  (** write failed; stop emitting, close *)
}

let conn_emit c line =
  if not c.c_dead then
    try write_line c.c_fd line with Unix.Unix_error _ -> c.c_dead <- true

type listener = { l_fd : Unix.file_descr; l_transport : string }

let unix_listener path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  { l_fd = fd; l_transport = "unix" }

let tcp_listener port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  let actual =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | _ -> port
  in
  ({ l_fd = fd; l_transport = "tcp" }, actual)

let daemon_loop ?(stop = fun () -> false) cfg ~listeners () =
  let conns = ref [] in
  let conn_seq = ref 0 in
  let accept_on l =
    match Unix.accept l.l_fd with
    | fd, _ ->
      incr conn_seq;
      Obs.incr c_connections;
      Obs.add_gauge g_open 1;
      Obs.Log.info "serve.connection"
        [ ("conn", `I !conn_seq); ("transport", `S l.l_transport) ];
      conns :=
        !conns
        @ [
            {
              c_fd = fd;
              c_next = reader_of_fd fd;
              c_session = new_session ();
              c_num = !conn_seq;
              c_eof = false;
              c_dead = false;
            };
          ]
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      -> ()
  in
  let close_conn c =
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    Obs.add_gauge g_open (-1);
    Obs.Log.info "serve.disconnect" [ ("conn", `I c.c_num) ]
  in
  let cleanup () =
    let dead, live = List.partition (fun c -> c.c_eof || c.c_dead) !conns in
    List.iter close_conn dead;
    conns := live
  in
  (* Fair batching across connections: pull at most one line per live
     connection per round, rounds starting at a rotating offset, until
     nothing more is immediately readable (or the admission caps are
     hit). A chatty connection cannot starve a quiet one — its surplus
     lines wait in its own reader buffer for the next cycle. *)
  let rotation = ref 0 in
  let drain_multi () =
    let admitted_at = Unix.gettimeofday () in
    let adm = new_admission () in
    let active = Array.of_list !conns in
    let n = Array.length active in
    if n > 0 then begin
      let start = !rotation mod n in
      incr rotation;
      let progress = ref true in
      while !progress && adm.adm_rejected < cfg.queue_capacity do
        progress := false;
        for k = 0 to n - 1 do
          let c = active.((start + k) mod n) in
          if (not c.c_eof) && (not c.c_dead) && adm.adm_rejected < cfg.queue_capacity
          then
            match c.c_next ~block:false with
            | Wait -> ()
            | Eof -> c.c_eof <- true
            | (Line _ | Oversized) as ev ->
              progress := true;
              admit_event cfg adm c.c_session ~admitted_at ~emit:(conn_emit c) ev
            | exception Unix.Unix_error _ -> c.c_eof <- true
        done
      done
    end;
    (List.rev adm.adm_admitted_rev, List.rev adm.adm_rejected_rev)
  in
  let rec loop () =
    if stop () then ()
    else
      (* Buffered lines first: bytes already pulled into a reader can no
         longer trip select. *)
      match drain_multi () with
      | [], [] ->
        cleanup ();
        let fds =
          List.map (fun l -> l.l_fd) listeners
          @ List.map (fun c -> c.c_fd) !conns
        in
        (match Unix.select fds [] [] 0.25 with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          List.iter (fun l -> if List.memq l.l_fd ready then accept_on l) listeners);
        loop ()
      | admitted, rejected ->
        process cfg admitted rejected;
        cleanup ();
        loop ()
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !conns;
      conns := [])
    loop

let run_daemon ?stop cfg ?socket_path ?tcp_port () =
  let listeners = ref [] and finalizers = ref [] in
  let add l fin =
    listeners := !listeners @ [ l ];
    finalizers := fin :: !finalizers
  in
  (match socket_path with
  | None -> ()
  | Some path ->
    let l = unix_listener path in
    Obs.Log.info "serve.listen" [ ("transport", `S "unix"); ("path", `S path) ];
    add l (fun () ->
        (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
        try Unix.unlink path with Unix.Unix_error _ -> ()));
  (match tcp_port with
  | None -> ()
  | Some port ->
    let l, actual = tcp_listener port in
    (* The bound port is announced on stderr (port 0 means "pick one"),
       so scripts can scrape it without racing the daemon. *)
    Printf.eprintf "serve: listening on 127.0.0.1:%d\n%!" actual;
    Obs.Log.info "serve.listen" [ ("transport", `S "tcp"); ("port", `I actual) ];
    add l (fun () -> try Unix.close l.l_fd with Unix.Unix_error _ -> ()));
  if !listeners = [] then
    invalid_arg "Serve.run_daemon: need a socket_path or a tcp_port";
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> f ()) !finalizers)
    (fun () -> daemon_loop ?stop cfg ~listeners:!listeners ())

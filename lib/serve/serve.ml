type event = Line of string | Oversized | Wait | Eof

(* A request line may not grow past this many bytes: the reader stops
   buffering it, skips to its newline and reports it as [Oversized]. *)
let max_line_bytes = 1 lsl 20

(* The longest a poller waits for input before it checks [stop] again. *)
let poll_s = 0.25

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
let t_request = Obs.timer "serve.request"

(* Per-class service latency: the split the scheduler exists for.
   Analytic requests must stay in the sub-millisecond mode whatever
   simulations run beside them; these histograms are where to look. *)
let t_request_analytic = Obs.timer "serve.request.analytic"
let t_request_simulation = Obs.timer "serve.request.simulation"

(* Admission-to-claim wait, overall and per class: where the claim
   policy shows. An analytic request's wait must not grow with the
   simulations admitted beside it. *)
let t_queue_wait = Obs.timer "serve.queue_wait"
let t_queue_wait_analytic = Obs.timer "serve.queue_wait.analytic"
let t_queue_wait_simulation = Obs.timer "serve.queue_wait.simulation"

(* Live levels for the dashboard: the queue depth (requests waiting for
   a domain) with its per-class split, how many requests are executing
   right now, and how many client connections are open. *)
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

type cls = Analytic | Simulation

type item = {
  it_id : string;
  it_v : int;  (** wire version to stamp on the response envelope *)
  it_class : cls;
  it_warnings : Serve_protocol.warning list;
  it_work : (Request.t * float option, Engine_error.t) result;
      (** decoded request plus its absolute deadline, or the decode error *)
}

let classify_request (req : Request.t) =
  match req.Request.body with
  | Request.Compile | Request.Partition _ -> Analytic
  | Request.Analyze { sims; _ } | Request.Sweep { sims; _ } ->
    if sims = [] then Analytic else Simulation

let error_item session ~id ~v err =
  { it_id = ensure_id session id; it_v = v; it_class = Analytic;
    it_warnings = []; it_work = Error err }

let decode_line cfg session ~admitted_at line =
  match Request.decode line with
  | Error { Request.err_id; err_v; err } -> error_item session ~id:err_id ~v:err_v err
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
    }

(* A line the transport discarded unread is answered like a request that
   failed to decode. *)
let item_of_event cfg session ~admitted_at = function
  | Line l -> Some (decode_line cfg session ~admitted_at l)
  | Oversized ->
    Some
      (error_item session ~id:None ~v:1
         (Engine_error.Invalid_request
            (Printf.sprintf "request line longer than %d bytes" max_line_bytes)))
  | Wait | Eof -> None

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

(* What the request log says about one finished request. Written with
   the response ([send_response]), not when the request finishes, so a
   connection's log lines come out in the same order as its responses
   whatever the number of domains. *)
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

(* Run one admitted request to completion on the calling domain. The
   serve-level latency clock runs from the start of execution to the
   finish; the request's id is the ambient correlation id throughout. *)
let run_one item =
  Obs.add_gauge g_inflight 1;
  let t0 = Unix.gettimeofday () in
  let finish ~op res stages =
    let dt = Unix.gettimeofday () -. t0 in
    Obs.add_seconds t_request dt;
    Obs.add_seconds
      (match item.it_class with
      | Analytic -> t_request_analytic
      | Simulation -> t_request_simulation)
      dt;
    Obs.add_gauge g_inflight (-1);
    (item, res, { l_op = op; l_seconds = dt; l_stages = stages })
  in
  Obs.Log.with_corr item.it_id @@ fun () ->
  match item.it_work with
  | Error err -> finish ~op:"invalid" (Error err) []
  | Ok (req, deadline) -> (
    let spec = req.Request.spec in
    match req.Request.body with
    | Request.Compile ->
      finish ~op:"compile"
        (Result.map (fun plan -> `Plan (Tiling_plan.to_json plan)) (Pipeline.plan_of spec))
        []
    | Request.Partition { procs; m_local; net } ->
      finish ~op:"partition"
        (Result.map
           (fun sol -> `Partition (Partition_solve.to_json sol))
           (Pipeline.partition_checked ?deadline spec ~p:procs ~m_local ~net))
        []
    | Request.Sweep { ms; sims; shared; timings } ->
      (* The points share the memo caches, each report renders exactly
         as the one-shot CLI's, and the first failing size fails the
         request. *)
      finish ~op:"sweep"
        (List.fold_left
           (fun acc m ->
             match acc with
             | Error _ as e -> e
             | Ok rendered -> (
               match Pipeline.run_checked ?deadline (Pipeline.request ~sims ~shared spec ~m) with
               | Error e -> Error e
               | Ok rep -> Ok (Report.to_json ~timings rep :: rendered)))
           (Ok []) ms
        |> Result.map (fun rendered -> `Reports (List.rev rendered)))
        []
    | Request.Analyze { m; sims; shared; timings } ->
      let checked = Pipeline.run_checked ?deadline (Pipeline.request ~sims ~shared spec ~m) in
      let stage_times = match checked with Ok rep -> rep.Report.timings | Error _ -> [] in
      finish ~op:"analyze"
        (Result.map (fun rep -> `Report (Report.to_json ~timings rep)) checked)
        stage_times)

(* Render a finished request, log it and write it with [emit]. *)
let send_response cfg ~emit (item, res, log) =
  log_request cfg item res log;
  let id = Some item.it_id in
  let v = item.it_v and warnings = item.it_warnings in
  let line =
    match res with
    | Ok (`Report report_json) -> Serve_protocol.ok_response ~warnings ~v ~id ~report_json ()
    | Ok (`Reports report_jsons) ->
      Serve_protocol.sweep_response ~warnings ~v ~id ~report_jsons ()
    | Ok (`Plan plan_json) -> Serve_protocol.plan_response ~warnings ~v ~id ~plan_json ()
    | Ok (`Partition partition_json) ->
      Serve_protocol.partition_response ~warnings ~v ~id ~partition_json ()
    | Error err ->
      count_error err;
      Serve_protocol.error_response ~v ~id err
  in
  Obs.incr c_responses;
  emit line

let send_rejection cfg ~emit item =
  let err = Engine_error.Overloaded { capacity = cfg.queue_capacity } in
  count_error err;
  Obs.incr c_responses;
  Obs.Log.warn "serve.overloaded"
    [ ("id", `S item.it_id); ("capacity", `I cfg.queue_capacity) ];
  emit (Serve_protocol.error_response ~v:item.it_v ~id:(Some item.it_id) err)

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
  (* `Progress: bytes consumed (or EOF reached); `Would_block; `Interrupted.
     A blocking read waits in [select] for at most [poll_s]: the signal
     that sets a stop flag may land on another domain's thread and leave
     this one's read uninterrupted. *)
  let try_read ~block =
    let ready =
      match Unix.select [ fd ] [] [] (if block then poll_s else 0.0) with
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

(* ------------------------------------------------------------------ *)
(* The dispatch loop                                                  *)
(* ------------------------------------------------------------------ *)

(* One response slot per line read from a connection, queued in arrival
   order. A finished request fills its slot with the thunk that logs and
   writes its response; the thunks run from the head of the queue only,
   so a response that finishes early waits for the ones before it. *)
type slot = { mutable s_out : (unit -> unit) option }

type conn = {
  c_next : block:bool -> event;  (** read by the poller only *)
  c_write : string -> unit;
      (** writes one response line; raises [Unix_error] once the peer is gone *)
  c_fd : Unix.file_descr option;
      (** an accepted socket: selected on, shut down after its last answer
          and closed with the connection; [None] for the pipe *)
  c_session : session;
  c_num : int;
  c_lock : Mutex.t;  (** guards [c_slots], [c_eof], [c_dead] and [c_write] *)
  c_slots : slot Queue.t;  (** lines read and not yet answered, oldest first *)
  mutable c_eof : bool;  (** client finished sending; close after replying *)
  mutable c_dead : bool;  (** write failed; stop emitting, close *)
}

let new_conn ?fd ~num ~next ~write () =
  {
    c_next = next;
    c_write = write;
    c_fd = fd;
    c_session = new_session ();
    c_num = num;
    c_lock = Mutex.create ();
    c_slots = Queue.create ();
    c_eof = false;
    c_dead = false;
  }

let conn_emit c line =
  if not c.c_dead then try c.c_write line with Unix.Unix_error _ -> c.c_dead <- true

(* Fill [slot] and write every answered line at the head of [c]'s queue.
   Once a socket client has sent EOF and its last line is answered, the
   sending side is shut down, so the client sees EOF now rather than when
   the poller next closes the descriptor. *)
let answer c slot out =
  Mutex.protect c.c_lock @@ fun () ->
  slot.s_out <- Some out;
  let rec flush () =
    match Queue.peek_opt c.c_slots with
    | Some { s_out = Some out } ->
      ignore (Queue.pop c.c_slots);
      out ();
      flush ()
    | _ -> ()
  in
  flush ();
  match c.c_fd with
  | Some fd when c.c_eof && Queue.is_empty c.c_slots -> (
    try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ())
  | _ -> ()

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

let c_domains = Obs.counter "serve.domains_spawned"

(* An admitted request waiting for a domain, and when it was admitted. *)
type job = { j_conn : conn; j_slot : slot; j_item : item; j_at : float }

(* Leader/follower dispatch over [cfg.jobs] domains: the caller's and
   [jobs - 1] spawned once, all running [next]. A domain claims waiting
   work, analytic before simulation; one that finds both queues empty
   takes the single poller role, reads at most one line per connection,
   admits what it read, gives the role up and claims work itself. The
   domain that finishes a request writes its response. With [jobs = 1]
   this is read a line, run it, answer it, on one domain. [conns] are
   the connections open at the start ([serve]'s); [listeners] accept
   more. The loop returns once no listener and no live connection
   remains, or [stop] reads true, and everything read is answered. *)
let dispatch_loop ?(stop = fun () -> false) cfg ~listeners conns =
  let lock = Mutex.create () and work = Condition.create () in
  let analytic = Queue.create () and simulation = Queue.create () in
  let polling = ref false (* a domain holds the poller role *) in
  let draining = ref false (* stop seen or nothing left to read *) in
  let failure = Atomic.make None in
  let queue_of = function Analytic -> analytic | Simulation -> simulation in
  (* Under [lock]: the live waiting counts. *)
  let set_depth () =
    let a = Queue.length analytic and s = Queue.length simulation in
    Obs.set_gauge g_queue (a + s);
    Obs.set_gauge g_queue_analytic a;
    Obs.set_gauge g_queue_simulation s
  in
  (* The connection list, the readers and [rotation] are touched by the
     poller only; the role passes between domains under [lock]. *)
  let conns = ref conns in
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
        !conns @ [ new_conn ~fd ~num:!conn_seq ~next:(reader_of_fd fd) ~write:(write_line fd) () ]
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      -> ()
  in
  let close_conn c =
    Option.iter
      (fun fd ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Obs.add_gauge g_open (-1);
        Obs.Log.info "serve.disconnect" [ ("conn", `I c.c_num) ])
      c.c_fd
  in
  let live c = not (c.c_eof || c.c_dead) in
  (* A finished or vanished client is closed once every line read from
     it has been answered. *)
  let cleanup () =
    let finished c =
      Mutex.protect c.c_lock (fun () -> (not (live c)) && Queue.is_empty c.c_slots)
    in
    let gone, kept = List.partition finished !conns in
    List.iter close_conn gone;
    conns := kept
  in
  (* Fair reading across connections: at most one line per live
     connection per round, starting at a rotating offset, so a chatty
     connection cannot starve a quiet one — its surplus lines wait in its
     own reader buffer for a later round. Returns what was read, in
     order; each line already holds its slot. *)
  let rotation = ref 0 in
  let read_round ~block =
    let admitted_at = Unix.gettimeofday () in
    let active = Array.of_list !conns in
    let n = Array.length active in
    let read = ref [] in
    if n > 0 then begin
      let start = !rotation mod n in
      incr rotation;
      for k = 0 to n - 1 do
        let c = active.((start + k) mod n) in
        if live c then
          let ev = try c.c_next ~block with Unix.Unix_error _ -> Eof in
          match item_of_event cfg c.c_session ~admitted_at ev with
          | Some item ->
            let slot = { s_out = None } in
            Mutex.protect c.c_lock (fun () -> Queue.push slot c.c_slots);
            read := { j_conn = c; j_slot = slot; j_item = item; j_at = admitted_at } :: !read
          | None -> (
            match ev with
            | Eof -> Mutex.protect c.c_lock (fun () -> c.c_eof <- true)
            | Line _ | Oversized | Wait -> ())
      done
    end;
    List.rev !read
  in
  (* One turn of the poller role. With no listener there is nothing to
     select on: the turn calls each live connection's reader in turn with
     [~block:true] (the pipe has one), and [None] once all are finished. With listeners, buffered lines
     come first: bytes already pulled into a reader can no longer trip
     select. A client whose EOF that round read is closed before the
     wait. *)
  let poll () =
    cleanup ();
    if stop () then None
    else if listeners = [] then
      if List.exists live !conns then Some (read_round ~block:true) else None
    else
      match read_round ~block:false with
      | _ :: _ as read -> Some read
      | [] ->
        cleanup ();
        let fds =
          List.map (fun l -> l.l_fd) listeners
          @ List.filter_map (fun c -> if live c then c.c_fd else None) !conns
        in
        (match Unix.select fds [] [] poll_s with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | ready, _, _ ->
          List.iter (fun l -> if List.memq l.l_fd ready then accept_on l) listeners);
        if stop () then None else Some (read_round ~block:false)
  in
  (* Under [lock]: queue what the poller read, per-class cap first. *)
  let admit read =
    let rejected = ref [] and admitted = ref 0 in
    List.iter
      (fun j ->
        let q = queue_of j.j_item.it_class in
        if Queue.length q < cfg.queue_capacity then begin
          Queue.push j q;
          incr admitted
        end
        else rejected := j :: !rejected)
      read;
    Obs.incr ~by:(List.length read) c_requests;
    Obs.incr c_batches;
    Obs.record_max c_batch_max !admitted;
    Obs.record_max c_queue_max (Queue.length analytic + Queue.length simulation);
    set_depth ();
    List.rev !rejected
  in
  (* Under [lock]: the next thing this domain does. *)
  let rec claim () =
    match
      match Queue.take_opt analytic with None -> Queue.take_opt simulation | j -> j
    with
    | Some j ->
      set_depth ();
      `Run j
    | None when !draining -> `Exit
    | None when not !polling ->
      polling := true;
      `Poll
    | None ->
      Condition.wait work lock;
      claim ()
  in
  let execute j =
    let waited = Unix.gettimeofday () -. j.j_at in
    Obs.add_seconds t_queue_wait waited;
    Obs.add_seconds
      (match j.j_item.it_class with
      | Analytic -> t_queue_wait_analytic
      | Simulation -> t_queue_wait_simulation)
      waited;
    let outcome = Obs.Trace.with_span "serve.request" (fun () -> run_one j.j_item) in
    answer j.j_conn j.j_slot (fun () -> send_response cfg ~emit:(conn_emit j.j_conn) outcome)
  in
  let rec next () = dispatch (Mutex.protect lock claim)
  and dispatch = function
    | `Exit -> ()
    | `Run j ->
      execute j;
      next ()
    | `Poll ->
      let read = poll () in
      let rejected, next =
        Mutex.protect lock @@ fun () ->
        polling := false;
        let rejected =
          match read with
          | Some [] -> [] (* nothing arrived: no one to wake *)
          | None ->
            draining := true;
            Condition.broadcast work;
            []
          | Some read ->
            Condition.broadcast work;
            admit read
        in
        (rejected, claim ())
      in
      List.iter
        (fun j ->
          answer j.j_conn j.j_slot (fun () ->
            send_rejection cfg ~emit:(conn_emit j.j_conn) j.j_item))
        rejected;
      dispatch next
  in
  (* A domain that dies takes the loop down with it: the others drain
     what is queued and stop, and the first exception is re-raised. *)
  let guarded () =
    try next ()
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (Atomic.compare_and_set failure None (Some (e, bt)));
      Mutex.protect lock (fun () ->
        draining := true;
        Condition.broadcast work)
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !conns;
      conns := [])
    (fun () ->
      Obs.incr ~by:(cfg.jobs - 1) c_domains;
      let domains =
        List.init (cfg.jobs - 1) (fun w ->
          Domain.spawn (fun () ->
            if Obs.Trace.is_enabled () then
              Obs.Trace.set_lane_name (Printf.sprintf "serve-%d" (w + 1));
            guarded ()))
      in
      guarded ();
      List.iter Domain.join domains;
      Option.iter
        (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
        (Atomic.get failure))

let serve ?stop cfg conns =
  dispatch_loop ?stop cfg ~listeners:[]
    (List.mapi (fun num (next, emit) -> new_conn ~num ~next ~write:emit ()) conns)

let run_pipe ?stop cfg =
  serve ?stop cfg [ (reader_of_fd Unix.stdin, write_line Unix.stdout) ]

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
    (fun () -> dispatch_loop ?stop cfg ~listeners:!listeners [])

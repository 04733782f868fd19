let c_maps = Obs.counter "pool.maps"
let c_tasks = Obs.counter "pool.tasks"
let c_domains = Obs.counter "pool.domains_spawned"
let c_max_tasks = Obs.counter "pool.max_tasks_per_domain"
let t_wall = Obs.timer "pool.map_wall"
let t_busy = Obs.timer "pool.worker_busy"
let t_idle = Obs.timer "pool.worker_idle"

(* Submit-to-start latency of each task: the time between the task
   becoming runnable (Pool.map called, or the continuation's first stage
   finishing) and a worker starting it. Long tasks and scheduling stalls
   look identical in busy/idle totals; these histograms tell them apart
   — and the per-class views are the point of the stage split: an
   analytic request's wait must not inherit a simulation's runtime. *)
let t_queue = Obs.timer "pool.queue_wait"
let t_queue_analytic = Obs.timer "pool.queue_wait.analytic"
let t_queue_simulation = Obs.timer "pool.queue_wait.simulation"
let t_task = Obs.timer "pool.task"

(* Domains of the current map not running a task right now: set to the
   pool width when a parallel map starts, decremented around each claimed
   task, back to 0 once the map joins. A window min of 0 with a busy
   queue means the pool is saturated; a min above 0 means tasks are too
   coarse to fill it (the starvation signal from ROADMAP item 3). *)
let g_idle = Obs.gauge "pool.idle_domains"

type priority = Analytic | Simulation

type 'b staged = Done of 'b | More of (unit -> 'b)

let validate_jobs s =
  match int_of_string_opt (String.trim s) with Some n when n >= 1 -> Some n | _ -> None

let default_jobs () =
  match Sys.getenv_opt "PROJTILE_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s when String.trim s = "" -> Domain.recommended_domain_count ()
  | Some s -> (
    match validate_jobs s with
    | Some n -> n
    | None ->
      let fallback = Domain.recommended_domain_count () in
      Printf.eprintf
        "projtile: warning: PROJTILE_JOBS=%S is not a positive integer; using %d domain%s\n%!"
        s fallback
        (if fallback = 1 then "" else "s");
      fallback)

let now = Unix.gettimeofday

(* Trace lane names of spawned workers, numbered across the process:
   every pool call spawns fresh domains, and a trace spanning several
   calls must still name each lane once. *)
let lane_seq = Atomic.make 1

let record_wait prio dt =
  Obs.add_seconds t_queue dt;
  Obs.add_seconds
    (match prio with Analytic -> t_queue_analytic | Simulation -> t_queue_simulation)
    dt

(* Execution of one stage, wrapped in a "pool.task" span (tagged with
   the item index) on the executing domain's trace lane. *)
let run_stage i g = Obs.Trace.with_span ~arg:i "pool.task" (fun () -> Obs.time t_task g)

(* A schedulable unit: one stage of one item. [t_at] is when it became
   runnable (queue wait is measured from there), [t_prio] the class its
   wait is charged to. [t_run] does the work and either writes the
   item's result slot ([None]) or returns the item's next stage. *)
type task = { t_at : float; t_prio : priority; t_run : unit -> task option }

let map_staged ?jobs ~classify f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  Obs.incr c_maps;
  Obs.incr ~by:n c_tasks;
  let submitted = now () in
  let results = Array.make n None in
  if jobs <= 1 || n <= 1 then begin
    Obs.record_max c_max_tasks n;
    Obs.time t_wall (fun () ->
      Array.iteri
        (fun i x ->
          record_wait (classify x) (now () -. submitted);
          (* No capture here: on the sequential path the first failure
             propagates immediately, as it always has. *)
          match run_stage i (fun () -> f x) with
          | Done v -> results.(i) <- Some (Ok v)
          | More g ->
            record_wait Simulation 0.0;
            results.(i) <- Some (Ok (run_stage i g)))
        xs)
  end
  else begin
    (* Two FIFO queues under one lock, the claim policy of the serve
       loop: all analytic work before any simulation work. *)
    let lock = Mutex.create () and work = Condition.create () in
    let analytic = Queue.create () and simulation = Queue.create () in
    let queue_of = function Analytic -> analytic | Simulation -> simulation in
    let unfinished = ref n in
    let busy = Array.make jobs 0.0 in
    let failed i e = results.(i) <- Some (Error (e, Printexc.get_raw_backtrace ())) in
    let stage2 i g () =
      (match run_stage i g with v -> results.(i) <- Some (Ok v) | exception e -> failed i e);
      None
    in
    let stage1 i () =
      match run_stage i (fun () -> f xs.(i)) with
      | Done v ->
        results.(i) <- Some (Ok v);
        None
      | More g ->
        (* The heavy tail of this item goes to the back of the simulation
           queue, behind any analytic work still waiting. *)
        Some { t_at = now (); t_prio = Simulation; t_run = stage2 i g }
      | exception e ->
        failed i e;
        None
    in
    Array.iteri
      (fun i x ->
        let prio = classify x in
        Queue.push { t_at = submitted; t_prio = prio; t_run = stage1 i } (queue_of prio))
      xs;
    (* Under [lock]: the next task, or [None] once every item is done. *)
    let rec claim () =
      match Queue.take_opt analytic with
      | Some _ as t -> t
      | None -> (
        match Queue.take_opt simulation with
        | Some _ as t -> t
        | None when !unfinished = 0 -> None
        | None ->
          Condition.wait work lock;
          claim ())
    in
    let worker w =
      if w > 0 && Obs.Trace.is_enabled () then
        Obs.Trace.set_lane_name
          (Printf.sprintf "worker-%d" (Atomic.fetch_and_add lane_seq 1));
      let mine = ref 0 in
      let rec loop () =
        match Mutex.protect lock claim with
        | None -> ()
        | Some task ->
          incr mine;
          record_wait task.t_prio (now () -. task.t_at);
          Obs.add_gauge g_idle (-1);
          let t0 = now () in
          let next = task.t_run () in
          busy.(w) <- busy.(w) +. (now () -. t0);
          Obs.add_gauge g_idle 1;
          Mutex.protect lock (fun () ->
            match next with
            | Some t ->
              Queue.push t simulation;
              Condition.signal work
            | None ->
              decr unfinished;
              if !unfinished = 0 then Condition.broadcast work);
          loop ()
      in
      loop ();
      Obs.add_seconds t_busy busy.(w);
      Obs.record_max c_max_tasks !mine
    in
    let t0 = now () in
    Obs.incr ~by:(jobs - 1) c_domains;
    Obs.set_gauge g_idle jobs;
    let domains = Array.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1))) in
    worker 0;
    Array.iter Domain.join domains;
    Obs.set_gauge g_idle 0;
    let wall = now () -. t0 in
    Obs.add_seconds t_wall wall;
    (* Idle capacity of this map: jobs * wall minus task-execution time. *)
    let total_busy = Array.fold_left ( +. ) 0.0 busy in
    Obs.add_seconds t_idle (Float.max 0.0 ((float_of_int jobs *. wall) -. total_busy))
  end;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let map_staged_list ?jobs ~classify f l =
  Array.to_list (map_staged ?jobs ~classify f (Array.of_list l))

let map ?jobs f xs = map_staged ?jobs ~classify:(fun _ -> Analytic) (fun x -> Done (f x)) xs
let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))

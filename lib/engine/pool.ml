let c_maps = Obs.counter "pool.maps"
let c_tasks = Obs.counter "pool.tasks"
let c_domains = Obs.counter "pool.domains_spawned"
let c_max_tasks = Obs.counter "pool.max_tasks_per_domain"
let c_steals = Obs.counter "pool.steals"
let c_steal_fails = Obs.counter "pool.steal_fails"
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
   wait is charged to. [t_run] does the work, writes the item's result
   slot and/or pushes a continuation, and returns how many items it
   completed (0 when it deferred to a continuation). *)
type task = { t_at : float; t_prio : priority; t_run : wid:int -> int }

let map_staged ?jobs ~classify f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  Obs.incr c_maps;
  Obs.incr ~by:n c_tasks;
  let submitted = now () in
  let results = Array.make n None in
  let finish i r =
    results.(i) <- Some r;
    1
  in
  let exec_cont i g =
    match run_stage i g with
    | v -> finish i (Ok v)
    | exception e -> finish i (Error (e, Printexc.get_raw_backtrace ()))
  in
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
    let classes = Array.map classify xs in
    let completed = Atomic.make 0 in
    let busy = Array.make jobs 0.0 in
    let steals = Array.make jobs 0 in
    let steal_fails = Array.make jobs 0 in
    (* Per-domain, per-class deques: a worker owns analytic.(w) and
       simulation.(w); everyone else steals from them. *)
    let analytic = Array.init jobs (fun _ -> Ws_deque.create ()) in
    let simulation = Array.init jobs (fun _ -> Ws_deque.create ()) in
    let push_cont ~wid i g =
      Ws_deque.push simulation.(wid)
        {
          t_at = now ();
          t_prio = Simulation;
          t_run = (fun ~wid:_ -> exec_cont i g);
        }
    in
    let stage1 i ~wid =
      match run_stage i (fun () -> f xs.(i)) with
      | Done v -> finish i (Ok v)
      | More g ->
        (* The heavy tail of this item goes to the back of the line on
           the worker's own simulation deque; the worker is free to run
           (or lose to a thief) other analytic work first. *)
        push_cont ~wid i g;
        0
      | exception e -> finish i (Error (e, Printexc.get_raw_backtrace ()))
    in
    let steal_from w row =
      let found = ref None in
      let v = ref 1 in
      while !found = None && !v < jobs do
        (match Ws_deque.steal row.((w + !v) mod jobs) with
        | Ws_deque.Stolen t ->
          steals.(w) <- steals.(w) + 1;
          found := Some t
        | Ws_deque.Empty -> ()
        | Ws_deque.Retry -> steal_fails.(w) <- steal_fails.(w) + 1);
        incr v
      done;
      !found
    in
    (* Claim order is the priority gate: all analytic work in the pool —
       own or stolen — before any simulation work. *)
    let find_task w =
      match Ws_deque.pop analytic.(w) with
      | Some t -> Some t
      | None -> (
        match steal_from w analytic with
        | Some t -> Some t
        | None -> (
          match Ws_deque.pop simulation.(w) with
          | Some t -> Some t
          | None -> steal_from w simulation))
    in
    let worker w =
      if w > 0 && Obs.Trace.is_enabled () then
        Obs.Trace.set_lane_name
          (Printf.sprintf "worker-%d" (Atomic.fetch_and_add lane_seq 1));
      let mine = ref 0 in
      let spins = ref 0 in
      while Atomic.get completed < n do
        match find_task w with
        | Some task ->
          spins := 0;
          incr mine;
          record_wait task.t_prio (now () -. task.t_at);
          Obs.add_gauge g_idle (-1);
          let t0 = now () in
          let done_count = task.t_run ~wid:w in
          busy.(w) <- busy.(w) +. (now () -. t0);
          Obs.add_gauge g_idle 1;
          if done_count > 0 then ignore (Atomic.fetch_and_add completed done_count)
        | None ->
          (* Nothing runnable anywhere right now (another worker is
             still producing, or we lost every steal race). Spin briefly,
             then sleep: on few-core hosts a hot spin here would steal
             the timeslice from the very domain we are waiting on. *)
          incr spins;
          if !spins < 32 then Domain.cpu_relax () else Unix.sleepf 50e-6
      done;
      Obs.add_seconds t_busy busy.(w);
      Obs.record_max c_max_tasks !mine;
      if steals.(w) > 0 then Obs.incr ~by:steals.(w) c_steals;
      if steal_fails.(w) > 0 then Obs.incr ~by:steal_fails.(w) c_steal_fails
    in
    (* Round-robin initial distribution, pushed before any worker
       exists (single-threaded, so the owner-only push contract holds;
       Domain.spawn publishes the contents). *)
    Array.iteri
      (fun i prio ->
        let row = match prio with Analytic -> analytic | Simulation -> simulation in
        Ws_deque.push row.(i mod jobs) { t_at = submitted; t_prio = prio; t_run = stage1 i })
      classes;
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

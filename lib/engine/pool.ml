let c_maps = Obs.counter "pool.maps"
let c_tasks = Obs.counter "pool.tasks"
let c_domains = Obs.counter "pool.domains_spawned"
let c_max_tasks = Obs.counter "pool.max_tasks_per_domain"
let t_wall = Obs.timer "pool.map_wall"
let t_busy = Obs.timer "pool.worker_busy"
let t_idle = Obs.timer "pool.worker_idle"

(* Submit-to-start latency of each item: the time between Pool.map being
   called and a worker starting the item. Long tasks and scheduling
   stalls look identical in busy/idle totals; this histogram tells them
   apart. *)
let t_queue = Obs.timer "pool.queue_wait"
let t_task = Obs.timer "pool.task"

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

(* Execution of one item, wrapped in a "pool.task" span (tagged with the
   item index) on the executing domain's trace lane. *)
let run_item i g = Obs.Trace.with_span ~arg:i "pool.task" (fun () -> Obs.time t_task g)

let map ?jobs f xs =
  let n = Array.length xs in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let jobs = min jobs n in
  Obs.incr c_maps;
  Obs.incr ~by:n c_tasks;
  let submitted = now () in
  if jobs <= 1 || n <= 1 then begin
    Obs.record_max c_max_tasks n;
    (* No capture here: on the sequential path the first failure
       propagates immediately. *)
    Obs.time t_wall (fun () ->
      Array.mapi
        (fun i x ->
          Obs.add_seconds t_queue (now () -. submitted);
          run_item i (fun () -> f x))
        xs)
  end
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let busy = Array.make jobs 0.0 in
    (* Items are claimed in index order off one shared counter. *)
    let worker w =
      if w > 0 && Obs.Trace.is_enabled () then
        Obs.Trace.set_lane_name
          (Printf.sprintf "worker-%d" (Atomic.fetch_and_add lane_seq 1));
      let mine = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          incr mine;
          let t0 = now () in
          Obs.add_seconds t_queue (t0 -. submitted);
          results.(i) <-
            Some
              (match run_item i (fun () -> f xs.(i)) with
              | v -> Ok v
              | exception e -> Error (e, Printexc.get_raw_backtrace ()));
          busy.(w) <- busy.(w) +. (now () -. t0);
          loop ()
        end
      in
      loop ();
      Obs.add_seconds t_busy busy.(w);
      Obs.record_max c_max_tasks !mine
    in
    let t0 = now () in
    Obs.incr ~by:(jobs - 1) c_domains;
    let domains = Array.init (jobs - 1) (fun w -> Domain.spawn (fun () -> worker (w + 1))) in
    worker 0;
    Array.iter Domain.join domains;
    let wall = now () -. t0 in
    Obs.add_seconds t_wall wall;
    (* Idle capacity of this map: jobs * wall minus task-execution time. *)
    let total_busy = Array.fold_left ( +. ) 0.0 busy in
    Obs.add_seconds t_idle (Float.max 0.0 ((float_of_int jobs *. wall) -. total_busy));
    Array.map
      (function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let map_list ?jobs f l = Array.to_list (map ?jobs f (Array.of_list l))

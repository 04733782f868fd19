(* Seeded request generation for the four benchmark workloads.

   Every workload is a fixed list of request lines made from the seed
   before anything is timed, plus a warm-up list run.py sends first. The
   warm-up list is the same for every seed, so set-up time differs
   between seeds only by measurement noise.
   The generator only emits requests the daemon must answer [ok]: cache
   sizes hold every array, simulated nests stay far below
   [Pipeline.sim_iteration_limit], and every processor count factors
   within its kernel's loop bounds. Each line is decoded with
   [Request.decode] before it is written, so a malformed line is a
   generator bug caught here rather than a failure counted later. *)

type t = { name : string; warmup : string list; requests : string list }

let names = [ "analytic-repeat"; "analytic-novel"; "simulate"; "partition" ]

(* Requests per list at [--seconds 25]; [make] scales them linearly.
   At the speeds measured when the benchmark was written (README.md),
   the two rounds of a run then take about 20 s. Long lists keep seeds
   apart only by sampling noise, and every list holds at least 1000
   requests, so p99 has ten samples beyond it. *)
let base_size = function
  | "analytic-repeat" -> 8000
  | "analytic-novel" -> 2800
  | "simulate" -> 1200
  | "partition" -> 1500
  | w -> invalid_arg ("unknown workload " ^ w)

(* Requests of each list the traced run replays at [--seconds 25], scaled
   the same way: enough for steady medians, short enough that the
   untraced and traced passes over all four workloads fit in about a
   run. *)
let trace_size ~seconds name =
  let n =
    match name with
    | "analytic-repeat" -> 2000
    | "analytic-novel" -> 500
    | "simulate" -> 250
    | "partition" -> 400
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  max 50 (n * seconds / 25)

let dsl spec =
  match Parser.to_dsl spec with
  | Some s -> s
  | None -> invalid_arg ("kernel not representable in the DSL: " ^ spec.Spec.name)

let preset name =
  match Kernels.lookup name with Ok s -> s | Error e -> invalid_arg e

(* Shapes the workloads draw from: presets plus two kernels that exist
   only in the DSL. Every request carries its kernel as DSL text with
   seeded bounds. *)
let repeat_shapes =
  List.map preset
    [ "matmul"; "nbody"; "mttkrp"; "batched_matmul"; "pointwise_conv"; "three_body" ]
  @ List.map Parser.parse_exn
      [
        "i = 8, j = 8, k = 8, l = 8 : Z[i,l] += A[i,j] * B[j,k] * C[k,l]";
        "a = 8, b = 8, c = 8, d = 8 : T[a,b] += X[a,c,d] * Y[c,d,b]";
      ]

let sim_shapes =
  List.map preset
    [ "matmul"; "nbody"; "outer_product"; "mttkrp"; "three_body"; "tensor_contraction" ]

let partition_shapes =
  List.map preset [ "matmul"; "three_body"; "nbody"; "outer_product" ]

let log_uniform st lo hi =
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  let v = int_of_float (Float.round (exp (l +. Random.State.float st (h -. l)))) in
  max lo (min hi v)

let min_m spec = max 2 (Spec.num_arrays spec)

let analyze ?(sims = false) ~id spec ~m =
  Printf.sprintf "{\"v\":2,\"id\":\"%s\",\"op\":\"analyze\",\"kernel\":%s,\"m\":%d%s}" id
    (Serve_protocol.jstr (dsl spec))
    m
    (if sims then ",\"schedules\":[\"optimal\",\"untiled\"],\"policies\":[\"lru\"]" else "")

let preset_analyze ~id name ~m =
  Printf.sprintf "{\"v\":2,\"id\":\"%s\",\"op\":\"analyze\",\"kernel\":\"%s\",\"m\":%d}" id
    name m

let partition ~id spec ~p ~m ~net =
  Printf.sprintf "{\"v\":2,\"id\":\"%s\",\"op\":\"partition\",\"kernel\":%s,\"p\":%d,\"m\":%d,\"net\":%s}"
    id
    (Serve_protocol.jstr (dsl spec))
    p m net

(* Stratified log-scale draw: request [i] lands in stratum [i mod k] of
   [lo, hi], so every seed covers the whole range evenly and seeds differ
   only within strata. This keeps figures that average over a list
   (throughput, words_over_bound) close across seeds. *)
let stratified st ~i ~k lo hi =
  let u = (float_of_int (i mod k) +. Random.State.float st 1.0) /. float_of_int k in
  let l = log (float_of_int lo) and h = log (float_of_int hi) in
  max lo (min hi (int_of_float (Float.round (exp (l +. (u *. (h -. l)))))))

let with_random_bounds st shape ~lo ~hi =
  Spec.with_bounds shape (Array.map (fun _ -> log_uniform st lo hi) shape.Spec.bounds)

let analytic_request st ~i ~id shape =
  let spec = with_random_bounds st shape ~lo:16 ~hi:2048 in
  analyze ~id spec ~m:(stratified st ~i ~k:16 (4 * min_m spec) 65536)

(* Bounds whose product is close to [target] iterations: the exponent of
   [target] is split over the loops in random proportions. *)
let rec bounds_near st shape ~target =
  let d = Spec.num_loops shape in
  let w = Array.init d (fun _ -> 0.2 +. Random.State.float st 1.0) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let b =
    Array.map (fun wi -> max 2 (int_of_float (Float.round (float_of_int target ** (wi /. total))))) w
  in
  let spec = Spec.with_bounds shape b in
  let n = Spec.iteration_count spec in
  if 2 * n >= target && n <= 2 * target && n <= Pipeline.sim_iteration_limit then spec
  else bounds_near st shape ~target

let sim_request st ~i ~id shape =
  let spec = bounds_near st shape ~target:(stratified st ~i ~k:8 1_000 100_000) in
  analyze ~sims:true ~id spec ~m:(stratified st ~i:(i / 8) ~k:4 (4 * min_m spec) 1024)

(* A fresh projective kernel with [d] loops and [n] arrays of distinct
   supports, every loop used by some array. *)
let rec random_kernel st ~d ~n =
  let support () =
    List.filter (fun _ -> Random.State.bool st) (List.init d Fun.id)
    |> function [] -> [ Random.State.int st d ] | s -> s
  in
  let supports = Array.init n (fun _ -> support ()) in
  for i = 0 to d - 1 do
    if not (Array.exists (List.mem i) supports) then begin
      let j = Random.State.int st n in
      supports.(j) <- List.sort compare (i :: supports.(j))
    end
  done;
  let distinct = List.length (List.sort_uniq compare (Array.to_list supports)) = n in
  if not distinct then random_kernel st ~d ~n
  else
    Spec.create_exn ~name:"novel"
      ~loops:(Array.init d (Printf.sprintf "i%d"))
      ~bounds:(Array.init d (fun _ -> log_uniform st 2 1024))
      ~arrays:
        (Array.mapi
           (fun j s ->
             Spec.array_ref ~mode:(if j = 0 then Spec.Update else Spec.Read)
               (Printf.sprintf "A%d" j) s)
           supports)

(* 3-6 loops and 2-5 arrays, cycling through all 16 combinations. *)
let novel_request st ~i ~id =
  let spec = random_kernel st ~d:(3 + (i mod 4)) ~n:(2 + (i / 4 mod 4)) in
  analyze ~id spec ~m:(stratified st ~i:(i / 16) ~k:8 (4 * min_m spec) 65536)

let processor_counts = [| 4; 12; 16; 24; 32; 48; 64; 96; 128; 192; 256; 384; 512; 768; 1024; 8 |]

let nets = [| "\"words\""; "{\"alpha\":1000,\"beta\":1}"; "{\"alpha\":\"1/2\",\"beta\":2}" |]

(* Every bound is a multiple of 4 in [64, 1024]: a stratified size per
   request times a per-loop factor in [1/2, 2]. [p] is the first count
   from the request's place in the cycle that factors within them. *)
let partition_request st ~i ~id shape =
  let size = stratified st ~i:(i / 256) ~k:4 32 128 in
  let spec =
    Spec.with_bounds shape
      (Array.map (fun _ -> 4 * log_uniform st (size / 2) (size * 2)) shape.Spec.bounds)
  in
  let rec factorable k =
    let p = processor_counts.((i / 4 + k) mod Array.length processor_counts) in
    match Partition.grids spec ~p with
    | [] -> factorable (k + 1)
    | _ -> p
    | exception Invalid_argument _ -> factorable (k + 1)
  in
  let m = [| 256; 1024; 4096; 16384 |].(i / 64 mod 4) in
  partition ~id spec ~p:(factorable 0) ~m:(max m (min_m spec)) ~net:nets.(i mod 3)

(* The warm-up pass: every shape the list repeats, each [warm_rounds]
   times with other bounds and [m], drawn from a fixed state. The first
   request of a shape runs its LP solves and queues its plan compile; the
   rest are plan-served. For [simulate] every warm-up request carries
   both simulations. [analytic-novel] has no shapes to warm, so it sends
   a fixed pass over the presets and 16 fixed random kernels instead.
   Set-up is timed to the end of this pass. The rounds are sized so that
   set-up is 40 to 55 ms of real work rather than a 5 ms process spawn,
   which no amount of repetition makes steady. *)
let warm_rounds = function "analytic-repeat" -> 8 | "simulate" -> 2 | _ -> 4

let make ~seed ~seconds name =
  let st = Random.State.make [| seed; Hashtbl.hash name |] in
  let wst = Random.State.make [| 0; Hashtbl.hash name |] in
  let n = max 1000 (base_size name * seconds / 25) in
  let cycle shapes i = List.nth shapes (i mod List.length shapes) in
  let warm f shapes =
    List.init
      (warm_rounds name * List.length shapes)
      (fun i -> f ~i ~id:(Printf.sprintf "w%d" i) (cycle shapes i))
  in
  let list f = List.init n (fun i -> f ~i ~id:(Printf.sprintf "r%d" i)) in
  let warmup, requests =
    match name with
    | "analytic-repeat" ->
      ( warm (fun ~i -> analytic_request wst ~i:(i / 8)) repeat_shapes,
        list (fun ~i ~id -> analytic_request st ~i:(i / 8) ~id (cycle repeat_shapes i)) )
    | "analytic-novel" ->
      ( List.concat_map
          (fun (i, (pname, _)) ->
            List.map
              (fun m -> preset_analyze ~id:(Printf.sprintf "w%d-%d" i m) pname ~m)
              [ 64; 256; 1024; 4096 ])
          (List.mapi (fun i k -> (i, k)) (Kernels.all ()))
        @ List.init 16 (fun i -> novel_request wst ~i ~id:(Printf.sprintf "w%d" i)),
        list (novel_request st) )
    | "simulate" ->
      ( warm (fun ~i -> sim_request wst ~i) sim_shapes,
        list (fun ~i ~id -> sim_request st ~i ~id (cycle sim_shapes (i / 32))) )
    | "partition" ->
      (* [67 * i] spreads the 16 warm-up requests over the size, P and m
         strata, which the list reaches only every 256, 4 and 64 requests. *)
      ( warm (fun ~i -> partition_request wst ~i:(67 * i)) partition_shapes,
        list (fun ~i ~id -> partition_request st ~i ~id (cycle partition_shapes i)) )
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  List.iter
    (fun line ->
      match Request.decode line with
      | Ok _ -> ()
      | Error e -> failwith ("generated an invalid request: " ^ Engine_error.to_string e.Request.err))
    (warmup @ requests);
  { name; warmup; requests }

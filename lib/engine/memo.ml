(* Sharded by key hash: serve runs many connections' requests on many
   domains against the same tables, and one global mutex per table was
   the next lock in line. Shard count is a power of two so selection is
   a mask, and each shard has its own mutex; hit/miss/entry counts move
   to atomics so the hot path never takes a lock it doesn't need for
   the table itself. *)

type 'a shard = { lock : Mutex.t; table : (string, 'a) Hashtbl.t }

type 'a t = {
  shards : 'a shard array;
  mask : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  entries : int Atomic.t;
  obs_hits : Obs.counter option;
  obs_misses : Obs.counter option;
  obs_entries : Obs.gauge option;
}

let default_shards = 16

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (k * 2)

let create ?(shards = default_shards) ?name () =
  let n = pow2_at_least (max 1 shards) 1 in
  {
    shards =
      Array.init n (fun _ -> { lock = Mutex.create (); table = Hashtbl.create 16 });
    mask = n - 1;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    entries = Atomic.make 0;
    obs_hits = Option.map (fun n -> Obs.counter ("memo." ^ n ^ ".hits")) name;
    obs_misses = Option.map (fun n -> Obs.counter ("memo." ^ n ^ ".misses")) name;
    obs_entries = Option.map (fun n -> Obs.gauge ("memo." ^ n ^ ".entries")) name;
  }

let shard_of t key = t.shards.(Hashtbl.hash key land t.mask)

let with_lock s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let count_entry t delta =
  let v = Atomic.fetch_and_add t.entries delta + delta in
  Option.iter (fun g -> Obs.set_gauge g v) t.obs_entries

let find_opt t key =
  let s = shard_of t key in
  let r = with_lock s (fun () -> Hashtbl.find_opt s.table key) in
  (match r with
  | Some _ ->
    Atomic.incr t.hits;
    Option.iter (fun c -> Obs.incr c) t.obs_hits
  | None ->
    Atomic.incr t.misses;
    Option.iter (fun c -> Obs.incr c) t.obs_misses);
  r

let add t key v =
  let s = shard_of t key in
  let added =
    with_lock s (fun () ->
      if Hashtbl.mem s.table key then false
      else begin
        Hashtbl.add s.table key v;
        true
      end)
  in
  if added then count_entry t 1

let find_or_add t key compute =
  match find_opt t key with
  | Some v -> v
  | None ->
    (* Computed outside the lock: a concurrent miss on the same key just
       recomputes the same deterministic value, and first writer wins. *)
    let v = compute () in
    add t key v;
    v

let hits t = Atomic.get t.hits
let misses t = Atomic.get t.misses
let length t = Atomic.get t.entries

let clear t =
  Array.iter (fun s -> with_lock s (fun () -> Hashtbl.reset s.table)) t.shards;
  Atomic.set t.hits 0;
  Atomic.set t.misses 0;
  Atomic.set t.entries 0;
  Option.iter (fun g -> Obs.set_gauge g 0) t.obs_entries

let to_alist t =
  let all =
    Array.fold_left
      (fun acc s ->
        with_lock s (fun () -> Hashtbl.fold (fun k v l -> (k, v) :: l) s.table acc))
      [] t.shards
  in
  List.sort (fun (k1, _) (k2, _) -> String.compare k1 k2) all

let string_of_mode = function Spec.Read -> "r" | Spec.Write -> "w" | Spec.Update -> "u"

let key_of_spec (spec : Spec.t) =
  let buf = Buffer.create 96 in
  Buffer.add_string buf "L=";
  Array.iteri
    (fun i l ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int l))
    spec.Spec.bounds;
  let rows =
    Array.to_list spec.Spec.arrays
    |> List.map (fun (a : Spec.array_ref) ->
         Printf.sprintf "%s:%s" (string_of_mode a.Spec.mode)
           (String.concat "," (List.map string_of_int (Array.to_list a.Spec.support))))
    |> List.sort String.compare
  in
  Buffer.add_string buf ";A=";
  Buffer.add_string buf (String.concat "|" rows);
  Buffer.contents buf

let key_of_shape = Tiling_plan.shape_key

let key_of_spec_beta spec ~beta =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (key_of_spec spec);
  Buffer.add_string buf ";b=";
  Array.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Rat.to_string r))
    beta;
  Buffer.contents buf

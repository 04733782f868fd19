(* Sharded by key hash: serve runs many connections' requests on many
   domains against the same tables, and one global mutex per table was
   the next lock in line. Shard count is a power of two so selection is
   a mask, and each shard has its own mutex; hit/miss/entry counts move
   to atomics so the hot path never takes a lock it doesn't need for
   the table itself. *)

type 'a shard = {
  lock : Mutex.t;
  filled : Condition.t;  (** broadcast when an in-flight key lands or fails *)
  table : (string, 'a) Hashtbl.t;
  inflight : (string, unit) Hashtbl.t;  (** keys being computed *)
}

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
      Array.init n (fun _ ->
        {
          lock = Mutex.create ();
          filled = Condition.create ();
          table = Hashtbl.create 16;
          inflight = Hashtbl.create 4;
        });
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

let count_hit t =
  Atomic.incr t.hits;
  Option.iter (fun c -> Obs.incr c) t.obs_hits

let count_miss t =
  Atomic.incr t.misses;
  Option.iter (fun c -> Obs.incr c) t.obs_misses

let find_opt t key =
  let s = shard_of t key in
  let r = with_lock s (fun () -> Hashtbl.find_opt s.table key) in
  (match r with Some _ -> count_hit t | None -> count_miss t);
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

(* Single flight: the first miss on a key marks it in flight and
   computes it outside the lock; later misses on that key wait for the
   value (and count as hits). A failed computation clears the mark and
   wakes the waiters, one of which computes it afresh. *)
let find_or_add t key compute =
  let s = shard_of t key in
  let rec claim () =
    match Hashtbl.find_opt s.table key with
    | Some v -> Some v
    | None when Hashtbl.mem s.inflight key ->
      Condition.wait s.filled s.lock;
      claim ()
    | None ->
      Hashtbl.replace s.inflight key ();
      None
  in
  match with_lock s claim with
  | Some v ->
    count_hit t;
    v
  | None ->
    count_miss t;
    let settle r =
      let added =
        with_lock s (fun () ->
          Hashtbl.remove s.inflight key;
          Condition.broadcast s.filled;
          match r with
          | Some v when not (Hashtbl.mem s.table key) ->
            Hashtbl.add s.table key v;
            true
          | _ -> false)
      in
      if added then count_entry t 1
    in
    (match compute () with
    | v ->
      settle (Some v);
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      settle None;
      Printexc.raise_with_backtrace e bt)

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

let ints xs = String.concat "," (List.map string_of_int (Array.to_list xs))

let key_of_spec (spec : Spec.t) =
  Printf.sprintf "L=%s;A=%s" (ints spec.Spec.bounds) (Tiling_plan.render_rows spec)

(* A bound that does not parse reads 0, which Spec.create refuses; the
   re-rendering check refuses every other non-canonical spelling. *)
let spec_of_key key =
  match String.split_on_char ';' key with
  | l :: a :: rest when String.starts_with ~prefix:"L=" l && String.starts_with ~prefix:"A=" a ->
    let ls = String.sub l 2 (String.length l - 2) in
    if String.fold_left (fun n c -> if c = ',' then n + 1 else n) 0 ls >= Tiling_plan.max_loops
    then Error (Printf.sprintf "key names more than %d loops" Tiling_plan.max_loops)
    else begin
      let bound s = Option.value ~default:0 (int_of_string_opt s) in
      let bounds = Array.of_list (List.map bound (String.split_on_char ',' ls)) in
      match Tiling_plan.spec_of_rows ~bounds (String.sub a 2 (String.length a - 2)) with
      | Ok spec when String.equal (key_of_spec spec) (l ^ ";" ^ a) ->
        let field f =
          match String.index_opt f '=' with
          | Some i -> (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1))
          | None -> (f, "")
        in
        Ok (spec, List.map field rest)
      | Ok _ -> Error (Printf.sprintf "key %S is not canonical" key)
      | Error _ as e -> e
    end
  | _ -> Error (Printf.sprintf "key %S does not start L=...;A=..." key)

let key_of_shape = Tiling_plan.shape_key

let key_of_spec_beta spec ~beta =
  Printf.sprintf "%s;b=%s" (key_of_spec spec)
    (String.concat "," (List.map Rat.to_string (Array.to_list beta)))

type t = { caches : Cache.t array; line_words : int }

let create ?(line_words = 1) ?lines ?(policy = Policy.Lru) ~capacities () =
  let n = Array.length capacities in
  if n = 0 then invalid_arg "Hierarchy.create: need at least one level";
  for k = 1 to n - 1 do
    if capacities.(k) <= capacities.(k - 1) then
      invalid_arg "Hierarchy.create: capacities must be strictly increasing"
  done;
  if policy = Policy.Opt then invalid_arg "Hierarchy.create: OPT is offline-only";
  (* Build outermost-first so each level's eviction handler can reference
     the next level. *)
  let caches = Array.make n None in
  for k = n - 1 downto 0 do
    let on_evict =
      if k = n - 1 then None
      else begin
        let next =
          match caches.(k + 1) with Some c -> c | None -> assert false
        in
        (* A dirty line leaving level k is written to level k+1; clean
           evictions are silent (lookup-through, non-inclusive). *)
        Some
          (fun ~line ~dirty ->
            if dirty then Cache.access next ~write:true (line * line_words))
      end
    in
    caches.(k) <-
      Some (Cache.create ~line_words ?lines ?on_evict ~policy ~capacity:capacities.(k) ())
  done;
  let caches = Array.map (function Some c -> c | None -> assert false) caches in
  { caches; line_words }

let levels t = Array.length t.caches

(* An access walks down the hierarchy until it hits; each traversed level
   records the access: level k sees the access iff all faster levels
   missed. *)
let access t ~write addr =
  let n = Array.length t.caches in
  let rec go k =
    if k < n then begin
      let c = t.caches.(k) in
      let was_resident = Cache.resident c addr in
      Cache.access c ~write addr;
      if not was_resident then go (k + 1)
    end
  in
  go 0

(* Batched same-line run. L1 absorbs the whole run (Cache.access_run);
   deeper levels see exactly what per-word replay would have shown them:
   one access carrying the run's *first* write flag, and only when L1 was
   not already resident — touches 2..count hit L1 and never descend. L1's
   eviction (which forwards a dirty victim to L2) happens inside
   access_run before the descent, preserving the per-word ordering. *)
let access_run t ~first_write ~any_write ~count addr =
  if count > 0 then begin
    let n = Array.length t.caches in
    let c0 = t.caches.(0) in
    let was_resident = Cache.resident c0 addr in
    Cache.access_run c0 ~write:any_write ~count addr;
    if not was_resident then begin
      let rec go k =
        if k < n then begin
          let c = t.caches.(k) in
          let was = Cache.resident c addr in
          Cache.access c ~write:first_write addr;
          if not was then go (k + 1)
        end
      in
      go 1
    end
  end

let flush t = Array.iter Cache.flush t.caches

let stats t = Array.map Cache.stats t.caches

let traffic t =
  Array.map
    (fun c ->
      let s = Cache.stats c in
      Cache.words_moved ~line_words:t.line_words s)
    t.caches

let record_obs t =
  Array.iteri
    (fun k c ->
      Cache.record_obs ~prefix:(Printf.sprintf "cachesim.L%d" (k + 1)) (Cache.stats c))
    t.caches

(* The shared-tile search as it stood before the per-depth rewrite of
   Tiling, kept unchanged as the oracle of the equivalence properties in
   test_hbl.ml: the grid walk the closed-form retained model replaced,
   the unpruned exhaustive search over it, and the pruned search that
   recomputed every footprint floor and lower bound from scratch (its
   four counters returned instead of recorded). *)

let mul_sat a b = if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b
let total_footprint = Tiling.total_footprint

type traffic = Tiling.traffic = { reads : float; writes : float }

let analytic_traffic spec b =
  let d = Spec.num_loops spec in
  let tiles_along = Array.init d (fun i -> ((spec.Spec.bounds.(i) - 1) / b.(i)) + 1) in
  let reads = ref 0.0 and writes = ref 0.0 in
  Array.iter
    (fun (a : Spec.array_ref) ->
      (* Tile footprints factor per dimension, and clipped edge tiles in a
         support dimension sum back to exactly L_i, so the words moved for
         array j are array_words(j) * prod_{i not in supp} tiles_along(i). *)
      let outside = ref 1.0 in
      for i = 0 to d - 1 do
        if not (Array.exists (fun k -> k = i) a.Spec.support) then
          outside := !outside *. float_of_int tiles_along.(i)
      done;
      (* array_words as a float product: Spec.array_words wraps on huge
         bounds, and a wrapped word count poisons every traffic figure. *)
      let array_words = ref 1.0 in
      Array.iter
        (fun i -> array_words := !array_words *. float_of_int spec.Spec.bounds.(i))
        a.Spec.support;
      let words = !array_words *. !outside in
      (match a.Spec.mode with
      | Spec.Read -> reads := !reads +. words
      | Spec.Write -> writes := !writes +. words
      | Spec.Update ->
        reads := !reads +. words;
        writes := !writes +. words))
    spec.Spec.arrays;
  { reads = !reads; writes = !writes }

(* Reference implementation of the retained model: walk the tile grid in
   lexicographic order and charge an array only when its projected block
   changes. *)
let retained_walk_capped ~max_tiles spec b =
  let d = Spec.num_loops spec in
  let n = Spec.num_arrays spec in
  let tiles_along = Array.init d (fun i -> ((spec.Spec.bounds.(i) - 1) / b.(i)) + 1) in
  (* Saturating product: with huge loop bounds the naive product wrapped
     negative, the cap test passed, and the walk ran for billions of
     steps. *)
  let total_tiles = Array.fold_left mul_sat 1 tiles_along in
  if total_tiles > max_tiles then analytic_traffic spec b
  else begin
    (* Walk the tile grid in lexicographic order; an array is (re)loaded
       only when its projected block differs from the previous tile's. *)
    let idx = Array.make d 0 in
    let last = Array.make n (-1) in
    let reads = ref 0.0 and writes = ref 0.0 in
    let charge j =
      let a = spec.Spec.arrays.(j) in
      let fp = ref 1 in
      Array.iter
        (fun i ->
          let o = idx.(i) * b.(i) in
          fp := !fp * Stdlib.min b.(i) (spec.Spec.bounds.(i) - o))
        a.Spec.support;
      let words = float_of_int !fp in
      match a.Spec.mode with
      | Spec.Read -> reads := !reads +. words
      | Spec.Write -> writes := !writes +. words
      | Spec.Update ->
        reads := !reads +. words;
        writes := !writes +. words
    in
    let proj_key (a : Spec.array_ref) =
      (* mixed-radix encoding of the projected tile coordinates *)
      Array.fold_left (fun acc i -> (acc * (tiles_along.(i) + 1)) + idx.(i)) 0 a.Spec.support
    in
    let steps = ref total_tiles in
    let continue = ref (total_tiles > 0) in
    while !continue do
      Array.iteri
        (fun j a ->
          let key = proj_key a in
          if key <> last.(j) then begin
            last.(j) <- key;
            charge j
          end)
        spec.Spec.arrays;
      (* odometer increment, innermost dimension fastest *)
      decr steps;
      if !steps = 0 then continue := false
      else begin
        let p = ref (d - 1) in
        let carrying = ref true in
        while !carrying do
          idx.(!p) <- idx.(!p) + 1;
          if idx.(!p) < tiles_along.(!p) then carrying := false
          else begin
            idx.(!p) <- 0;
            decr p
          end
        done
      end
    done;
    { reads = !reads; writes = !writes }
  end

(* The closed form of the walk, as the pruned search evaluated it. *)
let analytic_traffic_retained_capped ~max_tiles spec b =
  let d = Spec.num_loops spec in
  let tiles_along = Array.init d (fun i -> ((spec.Spec.bounds.(i) - 1) / b.(i)) + 1) in
  let total_tiles = Array.fold_left mul_sat 1 tiles_along in
  if total_tiles > max_tiles then analytic_traffic spec b
  else begin
    let in_support = Array.make d false in
    let reads = ref 0.0 and writes = ref 0.0 in
    Array.iter
      (fun (a : Spec.array_ref) ->
        Array.fill in_support 0 d false;
        let s' = ref (-1) in
        Array.iter
          (fun i ->
            in_support.(i) <- true;
            if tiles_along.(i) > 1 then s' := Stdlib.max !s' i)
          a.Spec.support;
        let words =
          (* array_words, as a float product so huge bounds cannot wrap *)
          let w = ref 1.0 in
          Array.iter (fun i -> w := !w *. float_of_int spec.Spec.bounds.(i)) a.Spec.support;
          for i = 0 to !s' - 1 do
            if not in_support.(i) then w := !w *. float_of_int tiles_along.(i)
          done;
          !w
        in
        match a.Spec.mode with
        | Spec.Read -> reads := !reads +. words
        | Spec.Write -> writes := !writes +. words
        | Spec.Update ->
          reads := !reads +. words;
          writes := !writes +. words)
      spec.Spec.arrays;
    { reads = !reads; writes = !writes }
  end

let analytic_traffic_retained_walk spec b = retained_walk_capped ~max_tiles:2_000_000 spec b

let retain_headroom spec ~m b = total_footprint spec b <= m - (((m - 1) / 4) + 1)

let search_traffic spec ~m b =
  let tr =
    if retain_headroom spec ~m b then analytic_traffic_retained_capped ~max_tiles:100_000 spec b
    else analytic_traffic spec b
  in
  tr.reads +. tr.writes

let search_traffic_walk spec ~m b =
  let tr =
    if retain_headroom spec ~m b then retained_walk_capped ~max_tiles:100_000 spec b
    else analytic_traffic spec b
  in
  tr.reads +. tr.writes

let refine_shared_with traffic_of spec ~m b =
  let d = Spec.num_loops spec in
  (* Largest value of dimension i keeping the total footprint <= m. *)
  let shared_cap t i =
    let fixed = ref 0 and per_unit = ref 0 in
    Array.iter
      (fun (a : Spec.array_ref) ->
        let fp =
          Array.fold_left (fun acc k -> acc * (if k = i then 1 else t.(k))) 1 a.Spec.support
        in
        if Array.exists (fun k -> k = i) a.Spec.support then per_unit := !per_unit + fp
        else fixed := !fixed + fp)
      spec.Spec.arrays;
    if !per_unit = 0 then spec.Spec.bounds.(i)
    else Stdlib.min spec.Spec.bounds.(i) ((m - !fixed) / !per_unit)
  in
  let best = Array.copy b in
  let best_traffic = ref (traffic_of best) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 64 do
    improved := false;
    incr rounds;
    for i = 0 to d - 1 do
      let cap = shared_cap best i in
      let candidates =
        [ 1; 2; best.(i) / 2; best.(i) * 2; cap; cap / 2; spec.Spec.bounds.(i) ]
      in
      List.iter
        (fun v ->
          let v = Stdlib.max 1 (Stdlib.min v cap) in
          if v <> best.(i) then begin
            let old = best.(i) in
            best.(i) <- v;
            if total_footprint spec best <= m then begin
              let tr = traffic_of best in
              if tr < !best_traffic -. 0.5 then begin
                best_traffic := tr;
                improved := true
              end
              else best.(i) <- old
            end
            else best.(i) <- old
          end)
        candidates
    done
  done;
  best

let pow2_ladder l =
  let rec pows acc v =
    if v >= l then List.rev (l :: acc)
    else if v > max_int / 2 then List.rev (l :: v :: acc)
    else pows (v :: acc) (v * 2)
  in
  Array.of_list (pows [] 1)

let traffic_lower_bound spec ~assigned b =
  let lb = ref 0.0 in
  Array.iter
    (fun (a : Spec.array_ref) ->
      let s' = ref (-1) in
      Array.iter
        (fun i ->
          if i < assigned && ((spec.Spec.bounds.(i) - 1) / b.(i)) + 1 > 1 then
            s' := Stdlib.max !s' i)
        a.Spec.support;
      let words = ref 1.0 in
      Array.iter (fun i -> words := !words *. float_of_int spec.Spec.bounds.(i)) a.Spec.support;
      for i = 0 to !s' - 1 do
        if not (Array.exists (fun k -> k = i) a.Spec.support) then
          words := !words *. float_of_int (((spec.Spec.bounds.(i) - 1) / b.(i)) + 1)
      done;
      let w = match a.Spec.mode with Spec.Update -> 2.0 | Spec.Read | Spec.Write -> 1.0 in
      lb := !lb +. (w *. !words))
    spec.Spec.arrays;
  !lb

type counters = { nodes : int; leaves : int; pruned_bound : int; pruned_footprint : int }

let grid_search_shared spec ~m ~incumbent =
  let objective = search_traffic spec ~m in
  let d = Spec.num_loops spec in
  let values = Array.init d (fun i -> pow2_ladder spec.Spec.bounds.(i)) in
  let b = Array.make d 1 in
  let best = ref None in
  let best_traffic = ref incumbent in
  let nodes = ref 0
  and leaves = ref 0
  and pruned_fp = ref 0
  and pruned_bound = ref 0 in
  let rec go i =
    if i = d then begin
      incr leaves;
      if total_footprint spec b <= m then begin
        let t = objective b in
        if t < !best_traffic then begin
          best_traffic := t;
          best := Some (Array.copy b)
        end
      end
    end
    else begin
      incr nodes;
      Array.iter
        (fun v ->
          b.(i) <- v;
          (* prune: remaining dims at 1 already give a footprint floor *)
          let floor_fp =
            let saved = Array.sub b (i + 1) (d - i - 1) in
            Array.fill b (i + 1) (d - i - 1) 1;
            let fp = total_footprint spec b in
            Array.blit saved 0 b (i + 1) (d - i - 1);
            fp
          in
          if floor_fp > m then incr pruned_fp
          else if traffic_lower_bound spec ~assigned:(i + 1) b >= !best_traffic then
            incr pruned_bound
          else go (i + 1))
        values.(i)
    end
  in
  go 0;
  ( !best,
    { nodes = !nodes; leaves = !leaves; pruned_bound = !pruned_bound; pruned_footprint = !pruned_fp }
  )

let optimal_at_budget spec ~budget =
  if budget < 2 then Array.make (Spec.num_loops spec) 1 else Tiling.optimal spec ~m:budget

(* The seed as it stood, [budget * m] wrapping for m > 2^31 included. *)
let lp_seed_shared spec ~m =
  let rec search budget rounds =
    let tile = optimal_at_budget spec ~budget in
    let total = total_footprint spec tile in
    if total <= m || budget <= 1 || rounds = 0 then tile
    else begin
      let scaled = budget * m / total in
      let next = if scaled < budget then scaled else budget - 1 in
      search (Stdlib.max 1 next) (rounds - 1)
    end
  in
  search m 32

let shared_validate spec ~m =
  if m < Spec.num_arrays spec then
    invalid_arg "Tiling.optimal_shared: cache smaller than one word per array"

(* The pruned search: the LP seed's traffic as incumbent, the grid
   search, then local refinement. Returns the tile and the counters the
   grid search recorded. *)
let optimal_shared_pruned spec ~m =
  shared_validate spec ~m;
  let lp_seed = lp_seed_shared spec ~m in
  let grid, counters = grid_search_shared spec ~m ~incumbent:(search_traffic spec ~m lp_seed) in
  let seed = match grid with Some grid_seed -> grid_seed | None -> lp_seed in
  (refine_shared_with (search_traffic spec ~m) spec ~m seed, counters)

(* The pre-closed-form, pre-pruning search, with the walk as objective
   and the exhaustive sweep. Slow: small shapes only. *)
let optimal_shared_reference spec ~m =
  shared_validate spec ~m;
  let objective = search_traffic_walk spec ~m in
  let d = Spec.num_loops spec in
  let values = Array.init d (fun i -> pow2_ladder spec.Spec.bounds.(i)) in
  let b = Array.make d 1 in
  let best = Array.make d 1 in
  let best_traffic = ref infinity in
  let rec go i =
    if i = d then begin
      if total_footprint spec b <= m then begin
        let t = objective b in
        if t < !best_traffic then begin
          best_traffic := t;
          Array.blit b 0 best 0 d
        end
      end
    end
    else
      Array.iter
        (fun v ->
          b.(i) <- v;
          let floor_fp =
            let saved = Array.sub b (i + 1) (d - i - 1) in
            Array.fill b (i + 1) (d - i - 1) 1;
            let fp = total_footprint spec b in
            Array.blit saved 0 b (i + 1) (d - i - 1);
            fp
          in
          if floor_fp <= m then go (i + 1))
        values.(i)
  in
  go 0;
  let grid_seed = Array.copy best in
  let lp_seed = lp_seed_shared spec ~m in
  let seed = if objective grid_seed < objective lp_seed then grid_seed else lp_seed in
  refine_shared_with objective spec ~m seed

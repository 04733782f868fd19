type lp_solution = { lambda : Rat.t array; value : Rat.t; dual : Rat.t array }

(* Saturating integer arithmetic for footprint/tile-count products.
   Loop bounds near max_int make the naive products wrap negative, which
   silently defeats every "is this bigger than the budget/cap?" guard
   downstream (the PR 2 class of 2^63 regressions). All inputs here are
   non-negative; max_int is as good as the true value for every consumer,
   because they only compare against small budgets and caps. *)
let mul_sat a b = if a = 0 || b = 0 then 0 else if a > max_int / b then max_int else a * b
let add_sat a b = if a > max_int - b then max_int else a + b

(* Search instrumentation (aggregated per search call, never per node in
   a tight loop deeper than this; see the Obs discipline in cache.ml). *)
let c_search_nodes = Obs.counter "tiling.search.nodes"
let c_search_leaves = Obs.counter "tiling.search.leaves"
let c_search_pruned_footprint = Obs.counter "tiling.search.pruned_footprint"
let c_search_pruned_bound = Obs.counter "tiling.search.pruned_bound"
let c_float_confirmed = Obs.counter "tiling.search.float_confirmed"
let c_exact_fallbacks = Obs.counter "tiling.search.exact_fallbacks"

let solve_lp spec ~beta =
  let sol = Simplex.solve_exn (Hbl_lp.tiling spec ~beta) in
  { lambda = sol.Simplex.primal; value = sol.Simplex.objective; dual = sol.Simplex.dual }

(* The optimal face of LP (5.1) is rarely a point, and which of its
   vertices the simplex lands on depends on pivot order — too fragile a
   contract for caches that must serve byte-identical answers. The
   lexicographically maximal optimum is unique: fix the value, then
   maximize lambda_0, freeze it, maximize lambda_1, and so on. The last
   coordinate needs no solve — the value equation pins it.

   Each per-k solve consumes only its optimal objective, which is unique
   whatever basis the solver lands on. That makes the per-k solves safe
   to serve from any exactly-certified basis: the float simplex
   pre-screens, and Simplex.certify (exact arithmetic, zero pivots)
   confirms its final basis. Only when certification fails — degenerate
   ties the float solver mis-resolves — does the full exact solver run.
   The base solve stays on the cold exact path: its dual vector is
   returned to callers and is NOT unique on degenerate faces, so serving
   it from a different basis would break byte-identity. *)
let solve_lp_lexmax spec ~beta =
  let base = Hbl_lp.tiling spec ~beta in
  let sol0 = Simplex.solve_exn base in
  let v = sol0.Simplex.objective in
  let d = Spec.num_loops spec in
  let lambda = Array.make d Rat.zero in
  let base_constrs = Array.to_list (Lp.constraints base) in
  let sum_row = Lp.constr ~name:"lex_total" (Array.make d Rat.one) Lp.Eq v in
  let objective_of lp =
    let certified =
      match Simplex_float.solve lp with
      | Simplex_float.Optimal fs -> Simplex.certify lp ~basis:fs.Simplex_float.basis
      | Simplex_float.Unbounded | Simplex_float.Infeasible -> None
    in
    match certified with
    | Some s ->
      Obs.incr c_float_confirmed;
      s.Simplex.objective
    | None ->
      Obs.incr c_exact_fallbacks;
      (Simplex.solve_exn lp).Simplex.objective
  in
  for k = 0 to d - 2 do
    let fixed =
      List.init k (fun i ->
        let coeffs = Array.make d Rat.zero in
        coeffs.(i) <- Rat.one;
        Lp.constr ~name:(Printf.sprintf "lex_fix_%d" i) coeffs Lp.Eq lambda.(i))
    in
    let obj = Array.make d Rat.zero in
    obj.(k) <- Rat.one;
    let lp = Lp.make Lp.Maximize obj (base_constrs @ (sum_row :: fixed)) in
    lambda.(k) <- objective_of lp
  done;
  lambda.(d - 1) <- Array.fold_left Rat.sub v (Array.sub lambda 0 (d - 1));
  { lambda; value = v; dual = sol0.Simplex.dual }

let volume b = Array.fold_left mul_sat 1 b

let footprint spec b j =
  Array.fold_left (fun acc i -> mul_sat acc b.(i)) 1 spec.Spec.arrays.(j).Spec.support

let max_footprint spec b =
  let worst = ref 0 in
  for j = 0 to Spec.num_arrays spec - 1 do
    worst := max !worst (footprint spec b j)
  done;
  !worst

let total_footprint spec b =
  let acc = ref 0 in
  for j = 0 to Spec.num_arrays spec - 1 do
    acc := add_sat !acc (footprint spec b j)
  done;
  !acc

let is_feasible spec ~m b =
  Array.length b = Spec.num_loops spec
  && Array.for_all2 (fun bi li -> 1 <= bi && bi <= li) b spec.Spec.bounds
  && max_footprint spec b <= m

(* Largest b_i keeping every array containing loop i within the memory
   budget, ignoring the current b_i. *)
let cap_for_dim spec ~m b i =
  let cap = ref spec.Spec.bounds.(i) in
  Array.iter
    (fun (a : Spec.array_ref) ->
      if Array.exists (fun k -> k = i) a.Spec.support then begin
        let others =
          Array.fold_left
            (fun acc k -> if k = i then acc else acc * b.(k))
            1 a.Spec.support
        in
        cap := min !cap (m / others)
      end)
    spec.Spec.arrays;
  !cap

let of_lambda spec ~m lambda =
  let d = Spec.num_loops spec in
  if Array.length lambda <> d then invalid_arg "Tiling.of_lambda: arity mismatch";
  if m < 1 then invalid_arg "Tiling.of_lambda: cache size must be positive";
  let log_m = log (float_of_int m) in
  let b =
    Array.init d (fun i ->
      let raw = Float.exp (Rat.to_float lambda.(i) *. log_m) in
      let v = int_of_float (Float.round raw) in
      Stdlib.min spec.Spec.bounds.(i) (Stdlib.max 1 v))
  in
  (* Repair: while some array overflows the budget, scale its largest
     dimension down proportionally. Each step strictly shrinks that
     dimension (integer division with footprint > m), and the all-ones
     tile is feasible, so this terminates. *)
  let overflowing () =
    let bad = ref (-1) in
    for j = 0 to Spec.num_arrays spec - 1 do
      if !bad < 0 && footprint spec b j > m then bad := j
    done;
    !bad
  in
  let rec repair () =
    let j = overflowing () in
    if j >= 0 then begin
      let sup = spec.Spec.arrays.(j).Spec.support in
      let pick = ref sup.(0) in
      Array.iter (fun i -> if b.(i) > b.(!pick) then pick := i) sup;
      let fp = footprint spec b j in
      b.(!pick) <- Stdlib.max 1 (b.(!pick) * m / fp);
      repair ()
    end
  in
  repair ();
  (* Grow to a maximal feasible rectangle; each pass is monotone
     non-decreasing and bounded by the loop bounds, so this terminates. *)
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to d - 1 do
      let cap = cap_for_dim spec ~m b i in
      if cap > b.(i) then begin
        b.(i) <- cap;
        changed := true
      end
    done
  done;
  b

let optimal spec ~m =
  let beta = Lower_bound.beta_of_bounds ~m spec.Spec.bounds in
  let sol = solve_lp spec ~beta in
  of_lambda spec ~m sol.lambda

let num_tiles spec b =
  let acc = ref 1 in
  Array.iteri (fun i l -> acc := mul_sat !acc (((l - 1) / b.(i)) + 1)) spec.Spec.bounds;
  !acc

type traffic = { reads : float; writes : float }

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
   changes. Kept (a) as the executable specification the closed form
   below is property-tested against, and (b) verbatim inside
   [optimal_shared_reference]. The closed form replaced it on the hot
   path: this walk was the dominant cost of [optimal_shared] (up to
   [max_tiles] odometer steps per candidate tile, hundreds of candidates
   per search). *)
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

(* Closed form for the walk above. In lexicographic tile order (innermost
   dimension fastest), the projection of the tile index onto array j's
   support changes exactly at the odometer steps whose carry reaches
   position s'_j = the innermost support dimension with more than one
   tile. So the walk charges one block per combination of the digits at
   positions 0..s'_j; summing the clipped projected footprints over the
   support digits reconstitutes the whole array exactly (clipped edge
   tiles sum back to L_i per dimension), leaving

     retained_j = array_words_j * prod { tiles_i : i < s'_j, i not in supp_j }

   and retained_j = array_words_j when every support dimension has a
   single tile (the projection never changes; the first tile charges the
   whole array). All quantities are integers below 2^53, so the float
   accumulation matches the walk bit for bit. *)
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

let analytic_traffic_retained spec b = analytic_traffic_retained_capped ~max_tiles:2_000_000 spec b

let analytic_traffic_retained_walk spec b = retained_walk_capped ~max_tiles:2_000_000 spec b

(* Retention credit is only real when the working set leaves LRU some
   headroom: at exactly-full capacity a cyclic reuse pattern degenerates
   to a full thrash (classic LRU pathology), so tiles above 3/4 of the
   budget are judged by the pessimistic per-tile-reload model.
   [fp <= m - ceil(m/4)] is [4*fp <= 3*m] rewritten overflow-free: the
   footprint saturates at max_int for huge tiles, and [4 * max_int]
   wrapped the old form around (as does [m + 3] for m near max_int —
   hence ceil as [(m - 1) / 4 + 1]). *)
let retain_headroom spec ~m b = total_footprint spec b <= m - (((m - 1) / 4) + 1)

(* The objective the shared-budget search minimizes. The retained model
   is also skipped for candidates with huge tile counts (they are far
   from optimal anyway). *)
let search_traffic spec ~m b =
  let tr =
    if retain_headroom spec ~m b then analytic_traffic_retained_capped ~max_tiles:100_000 spec b
    else analytic_traffic spec b
  in
  tr.reads +. tr.writes

(* Same objective evaluated with the reference grid walk instead of the
   closed form — only [optimal_shared_reference] uses it. *)
let search_traffic_walk spec ~m b =
  let tr =
    if retain_headroom spec ~m b then retained_walk_capped ~max_tiles:100_000 spec b
    else analytic_traffic spec b
  in
  tr.reads +. tr.writes

(* Local search minimizing the analytic traffic of the tiled schedule
   under a *total* footprint budget. The LP optimum is typically a face,
   and different vertices round to integer tiles with very different
   constant factors; a few greedy moves recover most of the gap.
   [traffic_of] is the candidate objective ([search_traffic spec ~m] on
   the production path). *)
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

(* Power-of-two ladder for one dimension: 1, 2, 4, ..., capped by the
   loop bound itself. Stop doubling once [v] crosses [max_int / 2] —
   beyond that [v * 2] wraps negative and [v >= l] never holds for
   bounds above ~2^62, which looped this ladder forever. *)
let pow2_ladder l =
  let rec pows acc v =
    if v >= l then List.rev (l :: acc)
    else if v > max_int / 2 then List.rev (l :: v :: acc)
    else pows (v :: acc) (v * 2)
  in
  Array.of_list (pows [] 1)

(* Admissible traffic lower bound for a branch-and-bound node: dimensions
   [0, assigned) carry committed tile sizes in [b]; the rest are free.
   Under the retained model, array j's traffic carries a factor
   tiles_along(k) for every non-support dimension k below the innermost
   support dimension with more than one tile. Unassigned dimensions sit
   below (inner to) every assigned one, so completing the assignment can
   only move that innermost dimension further in and multiply by more
   factors >= 1: the value below never exceeds the true retained traffic
   of any completion. The retained model never exceeds the per-tile
   reload model, so the bound is admissible whichever branch of
   [search_traffic] judges the leaf. This is the LP-dual insight of
   Demmel–Rusciano (arXiv:1611.05944) in integer form: committed outer
   tile counts price a subtree's traffic from below, so subtrees that
   cannot beat the incumbent are cut without evaluation. *)
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

(* Branch-and-bound sweep over log-spaced tile dimensions (powers of two
   plus the loop bound itself), minimizing analytic traffic under the
   shared budget. Greedy single-dimension moves can get trapped (raising
   one dimension may require first lowering another); this global sweep
   cannot. Partial assignments are pruned (a) by the footprint they
   already imply with all remaining dimensions at 1, and (b) by the
   admissible traffic lower bound against the incumbent. The search
   starts from the LP seed's traffic as incumbent and returns [Some]
   only on a strict improvement, preserving the visit order and
   tie-breaking of the exhaustive sweep it replaced (first strict
   minimum wins), so results are byte-identical. *)
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
  Obs.incr ~by:!nodes c_search_nodes;
  Obs.incr ~by:!leaves c_search_leaves;
  Obs.incr ~by:!pruned_fp c_search_pruned_footprint;
  Obs.incr ~by:!pruned_bound c_search_pruned_bound;
  !best

(* Shrink the per-array budget until the grown tile's total footprint
   fits in the shared cache. Each failed round multiplies the budget by
   at most m/total < 1, so this terminates; budget = 1 always fits. *)
let lp_seed_shared spec ~m =
  let rec search budget rounds =
    let tile = optimal spec ~m:budget in
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

let optimal_shared spec ~m =
  shared_validate spec ~m;
  let lp_seed = lp_seed_shared spec ~m in
  let seed =
    match grid_search_shared spec ~m ~incumbent:(search_traffic spec ~m lp_seed) with
    | Some grid_seed -> grid_seed
    | None -> lp_seed
  in
  refine_shared_with (search_traffic spec ~m) spec ~m seed

(* The pre-closed-form, pre-pruning search, with the walk as objective
   and the exhaustive sweep: the executable specification that
   [optimal_shared] is property-tested against for byte-identical
   tiles. Slow — test-only. *)
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

let nested spec ~ms =
  let n = Array.length ms in
  if n = 0 then invalid_arg "Tiling.nested: need at least one level";
  for k = 1 to n - 1 do
    if ms.(k) <= ms.(k - 1) then
      invalid_arg "Tiling.nested: capacities must be strictly increasing"
  done;
  (* Levels must compose: blocky (per-array-model) tiles nest cleanly,
     whereas the retention-exploiting thin tiles optimal_shared may pick
     for a single level interact badly when run inside outer blocks. So
     each level uses the LP tile for a scaled per-array budget (with the
     usual 3/4 headroom), forced elementwise monotone and shrunk back if
     the merge overflows the level's budget. *)
  let arrays = Spec.num_arrays spec in
  let level m =
    let budget = Stdlib.max 1 (3 * m / (4 * arrays)) in
    optimal spec ~m:budget
  in
  let tiles = Array.map level ms in
  for k = 1 to n - 1 do
    let merged = Array.map2 max tiles.(k) tiles.(k - 1) in
    (* Shrink (never below the inner tile) until the total footprint fits
       the level: halve the largest dimension with slack. *)
    let b = Array.copy merged in
    let budget = Stdlib.max (total_footprint spec tiles.(k - 1)) (3 * ms.(k) / 4) in
    let safety = ref 64 in
    while total_footprint spec b > budget && !safety > 0 do
      decr safety;
      let pick = ref (-1) in
      Array.iteri
        (fun i v -> if v > tiles.(k - 1).(i) && (!pick < 0 || v > b.(!pick)) then pick := i)
        b;
      if !pick < 0 then safety := 0
      else b.(!pick) <- Stdlib.max tiles.(k - 1).(!pick) ((b.(!pick) + 1) / 2)
    done;
    tiles.(k) <- b
  done;
  Array.to_list tiles

let pp spec fmt b =
  Format.fprintf fmt "@[<h>";
  Array.iteri
    (fun i bi ->
      if i > 0 then Format.fprintf fmt " x ";
      Format.fprintf fmt "%d(%s)" bi spec.Spec.loops.(i))
    b;
  Format.fprintf fmt "@]"

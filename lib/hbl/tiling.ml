type lp_solution = { lambda : Rat.t array; value : Rat.t; dual : Rat.t array }

(* Saturating integer arithmetic for footprint/tile-count products.
   Loop bounds near max_int make the naive products wrap negative, which
   silently defeats every "is this bigger than the budget/cap?" guard
   downstream (the PR 2 class of 2^63 regressions). All inputs here are
   non-negative; max_int is as good as the true value for every consumer,
   because they only compare against small budgets and caps. Operands
   below 2^31 cannot overflow, and skip the division. *)
let mul_sat a b =
  if (a lor b) lsr 31 = 0 then a * b
  else if a = 0 || b = 0 then 0
  else if a > max_int / b then max_int
  else a * b
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

(* The optimal objective of [lp] alone, unique whatever basis the solver
   lands on: Simplex.certify (exact, zero pivots) confirms the float
   simplex's final basis, and only when that fails (degenerate ties the
   float solver mis-resolves) does the full exact solver run. *)
let certified_objective lp =
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

let lp_value spec ~beta = certified_objective (Hbl_lp.tiling spec ~beta)

(* The optimal face of LP (5.1) is rarely a point, and which of its
   vertices the simplex lands on depends on pivot order — too fragile a
   contract for caches that must serve byte-identical answers. The
   lexicographically maximal optimum is unique: fix the value, then
   maximize lambda_0, freeze it, maximize lambda_1, and so on. The last
   coordinate needs no solve — the value equation pins it.

   Each per-k solve consumes only its optimal objective, so it is
   certified. The base solve stays exact: its dual vector is returned and
   is NOT unique on degenerate faces. *)
let solve_lp_lexmax spec ~beta =
  let base = Hbl_lp.tiling spec ~beta in
  let sol0 = Simplex.solve_exn base in
  let v = sol0.Simplex.objective in
  let d = Spec.num_loops spec in
  let lambda = Array.make d Rat.zero in
  let base_constrs = Array.to_list (Lp.constraints base) in
  let sum_row = Lp.constr ~name:"lex_total" (Array.make d Rat.one) Lp.Eq v in
  for k = 0 to d - 2 do
    let fixed =
      List.init k (fun i ->
        let coeffs = Array.make d Rat.zero in
        coeffs.(i) <- Rat.one;
        Lp.constr ~name:(Printf.sprintf "lex_fix_%d" i) coeffs Lp.Eq lambda.(i))
    in
    let obj = Array.make d Rat.zero in
    obj.(k) <- Rat.one;
    lambda.(k) <- certified_objective (Lp.make Lp.Maximize obj (base_constrs @ (sum_row :: fixed)))
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

(* Per-shape tables for traffic accounting, built once per search or
   traffic evaluation. *)
type shape = {
  spec : Spec.t;
  n : int;
  member : bool array;  (* member.(i * n + j): loop i is in array j's support *)
  words : float array;
      (* array_words as a float product over the support, in support
         order: Spec.array_words wraps on huge bounds, and a wrapped word
         count poisons every traffic figure *)
  weight : float array;  (* 2 for an Update array (read and written), else 1 *)
}

let shape spec =
  let n = Spec.num_arrays spec in
  let member = Array.make (Spec.num_loops spec * n) false in
  Array.iteri
    (fun j (a : Spec.array_ref) -> Array.iter (fun i -> member.((i * n) + j) <- true) a.Spec.support)
    spec.Spec.arrays;
  let words =
    Array.map
      (fun (a : Spec.array_ref) ->
        Array.fold_left (fun w i -> w *. float_of_int spec.Spec.bounds.(i)) 1.0 a.Spec.support)
      spec.Spec.arrays
  in
  let weight =
    Array.map
      (fun (a : Spec.array_ref) ->
        match a.Spec.mode with Spec.Update -> 2.0 | Spec.Read | Spec.Write -> 1.0)
      spec.Spec.arrays
  in
  { spec; n; member; words; weight }

(* Traffic accounting of a tile assigned loop by loop, outermost first.
   Level k (slots [k*n .. k*n + n - 1], one per array) describes the
   prefix b_0..b_{k-1} with every later loop at 1:

   - [fp]: array j's footprint (saturating);
   - [run]: words_j times the tile counts of j's non-support loops,
     multiplied in loop order;
   - [retained]: [run] as it stood at j's innermost support loop with
     more than one tile ([words_j] while there is none);
   - [outside]: the tile counts of j's non-support loops, multiplied in
     loop order from 1.0;
   - [tiles.(k)]: the product of all tile counts (saturating);
   - [bound.(k)]: sum_j weight_j * retained_j, in array order.

   Tile footprints factor per dimension, and clipped edge tiles in a
   support dimension sum back to exactly L_i, so under the per-tile
   reload model array j moves words_j * outside_j words. Under the
   retained model (consecutive tiles in lexicographic order that touch
   the same block of an array charge it once), array j's projection
   changes exactly at the odometer steps whose carry reaches s'_j = the
   innermost support dimension with more than one tile, so it moves

     retained_j = words_j * prod { tiles_i : i < s'_j, i not in supp_j }

   and words_j when every support dimension has a single tile. All
   factors are integers, and each product is taken in the same order as
   the tile-grid walk it replaced (test/tiling_reference.ml), so the
   floats agree bit for bit. Each level costs O(n) from the one above. *)
type levels = {
  fp : int array;
  run : float array;
  retained : float array;
  outside : float array;
  tiles : int array;
  bound : float array;
}

let levels sh =
  let size = (Spec.num_loops sh.spec + 1) * sh.n in
  let with_words () =
    let a = Array.make size 0.0 in
    Array.blit sh.words 0 a 0 sh.n;
    a
  in
  {
    fp = Array.make size 1;
    run = with_words ();
    retained = with_words ();
    outside = Array.make size 1.0;
    tiles = Array.make (Spec.num_loops sh.spec + 1) 1;
    bound = Array.make (Spec.num_loops sh.spec + 1) 0.0;
  }

let tiles_along l v = ((l - 1) / v) + 1

(* Level k+1 from level k, with loop k at size [v] cut into [t] tiles.
   Returns the total footprint of the prefix (saturating): the floor of
   every completion's footprint. *)
let step sh lv k v t =
  let n = sh.n in
  let src = k * n in
  let dst = src + n in
  let tf = float_of_int t in
  lv.tiles.(k + 1) <- mul_sat lv.tiles.(k) t;
  let total = ref 0 and bound = ref 0.0 in
  for j = 0 to n - 1 do
    let s = src + j and d = dst + j in
    if sh.member.(s) then begin
      lv.fp.(d) <- mul_sat lv.fp.(s) v;
      lv.run.(d) <- lv.run.(s);
      lv.retained.(d) <- (if t > 1 then lv.run.(s) else lv.retained.(s));
      lv.outside.(d) <- lv.outside.(s)
    end
    else begin
      lv.fp.(d) <- lv.fp.(s);
      lv.run.(d) <- lv.run.(s) *. tf;
      lv.retained.(d) <- lv.retained.(s);
      lv.outside.(d) <- lv.outside.(s) *. tf
    end;
    total := add_sat !total lv.fp.(d);
    bound := !bound +. (sh.weight.(j) *. lv.retained.(d))
  done;
  lv.bound.(k + 1) <- !bound;
  !total

(* Fill every level from the full tile [b]; returns its total footprint. *)
let assign sh lv b =
  let bounds = sh.spec.Spec.bounds in
  let total = ref sh.n in
  for k = 0 to Array.length bounds - 1 do
    total := step sh lv k b.(k) (tiles_along bounds.(k) b.(k))
  done;
  !total

(* Reads and writes of the full tile at the last level, under the
   retained model or the per-tile reload model. *)
let traffic_at sh lv ~retained =
  let base = Spec.num_loops sh.spec * sh.n in
  let reads = ref 0.0 and writes = ref 0.0 in
  for j = 0 to sh.n - 1 do
    let words =
      if retained then lv.retained.(base + j) else sh.words.(j) *. lv.outside.(base + j)
    in
    match sh.spec.Spec.arrays.(j).Spec.mode with
    | Spec.Read -> reads := !reads +. words
    | Spec.Write -> writes := !writes +. words
    | Spec.Update ->
      reads := !reads +. words;
      writes := !writes +. words
  done;
  { reads = !reads; writes = !writes }

let analytic_traffic spec b =
  let sh = shape spec in
  let lv = levels sh in
  ignore (assign sh lv b);
  traffic_at sh lv ~retained:false

let analytic_traffic_retained spec b =
  let sh = shape spec in
  let lv = levels sh in
  ignore (assign sh lv b);
  traffic_at sh lv ~retained:(lv.tiles.(Spec.num_loops spec) <= 2_000_000)

(* The objective the shared-budget search minimizes, for the tile at the
   last level of [lv] with total footprint [total]. Retention credit is
   only real when the working set leaves LRU some headroom: at
   exactly-full capacity a cyclic reuse pattern degenerates to a full
   thrash (classic LRU pathology), so tiles above 3/4 of the budget are
   judged by the pessimistic per-tile-reload model, as are tiles with
   huge tile counts (far from optimal anyway).
   [total <= m - ceil(m/4)] is [4*total <= 3*m] rewritten overflow-free:
   the footprint saturates at max_int for huge tiles, and [4 * max_int]
   wrapped the old form around (as does [m + 3] for m near max_int —
   hence ceil as [(m - 1) / 4 + 1]). *)
let search_traffic sh lv ~m ~total =
  let headroom = total <= m - (((m - 1) / 4) + 1) in
  let tr =
    traffic_at sh lv ~retained:(headroom && lv.tiles.(Spec.num_loops sh.spec) <= 100_000)
  in
  tr.reads +. tr.writes

(* Local search minimizing the search objective under a *total*
   footprint budget. The LP optimum is typically a face, and different
   vertices round to integer tiles with very different constant factors;
   a few greedy moves recover most of the gap. *)
let refine_shared sh lv ~m b =
  let spec = sh.spec in
  let n = sh.n in
  (* Largest value of dimension i keeping the total footprint <= m. *)
  let shared_cap t i =
    let fixed = ref 0 and per_unit = ref 0 in
    Array.iteri
      (fun j (a : Spec.array_ref) ->
        let fp =
          Array.fold_left (fun acc k -> acc * (if k = i then 1 else t.(k))) 1 a.Spec.support
        in
        if sh.member.((i * n) + j) then per_unit := !per_unit + fp else fixed := !fixed + fp)
      spec.Spec.arrays;
    if !per_unit = 0 then spec.Spec.bounds.(i)
    else Stdlib.min spec.Spec.bounds.(i) ((m - !fixed) / !per_unit)
  in
  let best = Array.copy b in
  let best_traffic = ref (search_traffic sh lv ~m ~total:(assign sh lv best)) in
  let improved = ref true in
  let rounds = ref 0 in
  while !improved && !rounds < 64 do
    improved := false;
    incr rounds;
    for i = 0 to Array.length best - 1 do
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
            let total = assign sh lv best in
            if total <= m then begin
              let tr = search_traffic sh lv ~m ~total in
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

(* Branch-and-bound sweep over log-spaced tile dimensions (powers of two
   plus the loop bound itself), minimizing the search objective under
   the shared budget. Greedy single-dimension moves can get trapped
   (raising one dimension may require first lowering another); this
   global sweep cannot. Assigning loop i at a ladder value computes level
   i+1 of [lv] from level i in O(n), and prunes the subtree

   (a) when the prefix footprint (every remaining loop at 1) already
       exceeds m. The floor only grows along the ascending ladder, so
       the rest of the ladder is counted as pruned unvisited;
   (b) when the admissible traffic lower bound sum_j weight_j *
       retained_j of the prefix reaches the incumbent. Under the
       retained model, array j's traffic carries a factor tiles_i for
       every non-support loop i below its innermost multi-tile support
       loop. Unassigned loops sit inside every assigned one, so
       completing the assignment can only move that loop further in and
       multiply by more factors >= 1; the retained model never exceeds
       the per-tile reload model, so the bound holds whichever model
       judges the leaf. This is the LP-dual insight of Demmel–Rusciano
       (arXiv:1611.05944) in integer form: committed outer tile counts
       price a subtree's traffic from below.

   The search starts from the LP seed's traffic as incumbent and returns
   [Some] only on a strict improvement, preserving the visit order and
   tie-breaking of the exhaustive sweep it replaced (first strict
   minimum wins), so results are byte-identical. *)
let grid_search_shared sh lv ~m ~incumbent =
  let bounds = sh.spec.Spec.bounds in
  let n = sh.n in
  let d = Array.length bounds in
  let values = Array.map pow2_ladder bounds in
  let counts = Array.mapi (fun i vs -> Array.map (tiles_along bounds.(i)) vs) values in
  let b = Array.make d 1 in
  let best = ref None in
  let best_traffic = ref incumbent in
  let nodes = ref 0
  and leaves = ref 0
  and pruned_fp = ref 0
  and pruned_bound = ref 0 in
  let rec go i total =
    if i = d then begin
      (* [total] <= m: the last footprint floor is the tile's footprint *)
      incr leaves;
      let t = search_traffic sh lv ~m ~total in
      if t < !best_traffic then begin
        best_traffic := t;
        best := Some (Array.copy b)
      end
    end
    else begin
      incr nodes;
      let vs = values.(i) and ts = counts.(i) in
      let len = Array.length vs in
      let k = ref 0 in
      while !k < len do
        let v = vs.(!k) in
        b.(i) <- v;
        let floor_fp = step sh lv i v ts.(!k) in
        if floor_fp > m then begin
          pruned_fp := !pruned_fp + (len - !k);
          k := len
        end
        else begin
          if lv.bound.(i + 1) >= !best_traffic then incr pruned_bound else go (i + 1) floor_fp;
          incr k
        end
      done
    end
  in
  go 0 n;
  Obs.incr ~by:!nodes c_search_nodes;
  Obs.incr ~by:!leaves c_search_leaves;
  Obs.incr ~by:!pruned_fp c_search_pruned_footprint;
  Obs.incr ~by:!pruned_bound c_search_pruned_bound;
  !best

(* The per-array LP tile for a scaled-down budget. The bound's beta
   needs a budget of at least 2 words; below that the only tile that
   fits is the all-ones tile. *)
let optimal_at_budget spec ~budget =
  if budget < 2 then Array.make (Spec.num_loops spec) 1 else optimal spec ~m:budget

(* floor (budget * m / total): the int product while it fits, exact
   rationals beyond. budget * m passes max_int for m > 2^31, and the
   wrapped product collapsed the seed toward the all-ones tile. *)
let scale_budget budget ~m ~total =
  if budget <= max_int / m then budget * m / total
  else Bigint.to_int (Rat.floor (Rat.div (Rat.mul_int (Rat.of_int budget) m) (Rat.of_int total)))

(* Shrink the per-array budget until the grown tile's total footprint
   fits in the shared cache. Each failed round multiplies the budget by
   at most m/total < 1, so this terminates; budget = 1 always fits. *)
let lp_seed_shared spec ~m =
  let rec search budget rounds =
    let tile = optimal_at_budget spec ~budget in
    let total = total_footprint spec tile in
    if total <= m || budget <= 1 || rounds = 0 then tile
    else begin
      let scaled = scale_budget budget ~m ~total in
      let next = if scaled < budget then scaled else budget - 1 in
      search (Stdlib.max 1 next) (rounds - 1)
    end
  in
  search m 32

let optimal_shared spec ~m =
  if m < Spec.num_arrays spec then
    invalid_arg "Tiling.optimal_shared: cache smaller than one word per array";
  let sh = shape spec in
  let lv = levels sh in
  let lp_seed = lp_seed_shared spec ~m in
  let incumbent = search_traffic sh lv ~m ~total:(assign sh lv lp_seed) in
  let seed =
    match grid_search_shared sh lv ~m ~incumbent with
    | Some grid_seed -> grid_seed
    | None -> lp_seed
  in
  refine_shared sh lv ~m seed

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
    optimal_at_budget spec ~budget:(3 * m / (4 * arrays))
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

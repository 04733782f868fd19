type grid_cost = { grid : int array; block : int array; words : Bigint.t }

let cost spec ~grid =
  let block = Partition.block_dims spec ~grid in
  (* Exact arithmetic: a full-support array over 2^21-sized blocks has a
     2^63-word footprint, which wraps to a small (or negative) value in
     63-bit native ints and then wrongly wins [best_grid] comparisons. *)
  let words =
    Array.fold_left
      (fun acc (a : Spec.array_ref) ->
        Bigint.add acc
          (Array.fold_left
             (fun f i -> Bigint.mul f (Bigint.of_int block.(i)))
             Bigint.one a.Spec.support))
      Bigint.zero spec.Spec.arrays
  in
  { grid; block; words }

let best_grid spec ~p =
  let candidates = Partition.grids spec ~p in
  List.fold_left
    (fun acc grid ->
      let c = cost spec ~grid in
      match acc with
      | Some best when Bigint.compare best.words c.words <= 0 -> acc
      | _ -> Some c)
    None candidates

let simulated_block spec ~block =
  let sub = Spec.with_bounds spec block in
  let layout = Layout.make sub in
  let seen = Hashtbl.create 1024 in
  Schedules.iterate sub Schedules.Untiled (fun point ->
    for j = 0 to Spec.num_arrays sub - 1 do
      let addr = Layout.address layout j point in
      if not (Hashtbl.mem seen addr) then Hashtbl.add seen addr ()
    done);
  Hashtbl.length seen

let simulated_cost spec ~grid =
  simulated_block spec ~block:(Partition.block_dims spec ~grid)

let block_groups spec ~grid =
  (* Processor [k_1, ..., k_d] owns the slice [k_i*b_i, min((k_i+1)*b_i,
     L_i)) of each dimension, so along dimension i there are at most
     three distinct slice widths: the full b_i (floor(L_i/b_i) of them),
     one remainder L_i mod b_i, and empty slices for the processors the
     ceiling over-provisioned. Grouping processors by block shape turns a
     P-processor simulation into at most 3^d distinct sub-nests — one
     per group, each standing in for [count] identical processors. Empty
     blocks (zero in any dimension) move no words and are dropped. *)
  let d = Spec.num_loops spec in
  let block = Partition.block_dims spec ~grid in
  let parts =
    Array.init d (fun i ->
      let l = spec.Spec.bounds.(i) and p = grid.(i) and b = block.(i) in
      let full = l / b in
      let rem = l - (full * b) in
      let sizes = if rem > 0 then [ (b, full); (rem, 1) ] else [ (b, full) ] in
      let empty = p - full - if rem > 0 then 1 else 0 in
      if empty > 0 then sizes @ [ (0, empty) ] else sizes)
  in
  let acc = ref [] in
  let shape = Array.make d 0 in
  let rec go i count =
    if i = d then begin
      if Array.for_all (fun s -> s > 0) shape then
        acc := (Array.copy shape, count) :: !acc
    end
    else
      List.iter
        (fun (size, n) ->
          shape.(i) <- size;
          go (i + 1) (count * n))
        parts.(i)
  in
  go 0 1;
  List.rev !acc

type processor_run = {
  grid : int array;
  m_local : int;
  tile : int array;
  words_per_proc : int;
}

let simulate_processor spec ~grid ~m_local =
  let block = Partition.block_dims spec ~grid in
  let sub = Spec.with_bounds spec block in
  if Bigint.compare (Spec.iteration_count_big sub) (Bigint.of_int 20_000_000) > 0 then
    invalid_arg "Comm_model.simulate_processor: block too large to simulate";
  let tile = Tiling.optimal_shared sub ~m:m_local in
  let r = Executor.run sub ~schedule:(Schedules.Tiled tile) ~capacity:m_local in
  { grid = Array.copy grid; m_local; tile; words_per_proc = r.Executor.words_moved }

(* Iterations coverable by a tile whose per-array footprint is at most f:
   f^{k_hat} with beta measured in base f. *)
let coverage spec f =
  if f < 2.0 then 1.0
  else begin
    let log_f = log f in
    let beta =
      Array.map
        (fun l -> if l <= 1 then Rat.zero else Rat.rationalize (log (float_of_int l) /. log_f))
        spec.Spec.bounds
    in
    Float.exp (Rat.to_float (Tiling.lp_value spec ~beta) *. log_f)
  end

let min_footprint spec ~iterations =
  if iterations <= 1.0 then 1.0
  else begin
    (* Coverage is monotone in f; bisect in the float domain. The search
       used to double a native int, which wraps at 2^62 and then cycles
       at 0 forever when k_hat = 1 forces f past max_int (e.g. a
       full-support array over 2^21-cubed bounds needs f ~ 2^63). Floats
       reach such footprints exactly enough; the bisection stops at one
       part in 10^12, which subsumes the old integer-resolution stop for
       every footprint below 2^52. *)
    let hi = ref 2.0 in
    while coverage spec !hi < iterations do
      hi := !hi *. 2.0
    done;
    let lo = ref (!hi /. 2.0) in
    while !hi -. !lo > Float.max 1.0 (1e-12 *. !hi) do
      let mid = Float.round ((!lo +. !hi) /. 2.0) in
      if mid <= !lo || mid >= !hi then lo := !hi
      else if coverage spec mid >= iterations then hi := mid
      else lo := mid
    done;
    !hi
  end

let lower_bound spec ~p =
  let iterations = Bigint.to_float (Spec.iteration_count_big spec) /. float_of_int p in
  min_footprint spec ~iterations

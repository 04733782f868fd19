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

(* One exact LP over l_i = rationalized ln L_i, with T = sum l_i - ln(prod
   L_i / I) taken from the same l_i so p = 1 stays feasible (THEORY.md).
   Its dual over the target row's multiplier y is the binding vertex
   (zeta, s), the bound rows carrying -zeta_i y: ln F = (ln I - zeta .
   ln L) / sigma, in floats, rounded up with a 1e-9 slack so exact powers
   stay exact. *)
let footprint spec ~ln_gap =
  let ln_l = Array.map (fun l -> log (float_of_int l)) spec.Spec.bounds in
  let ell = Array.map Rat.rationalize ln_l in
  let target = Rat.sub (Array.fold_left Rat.add Rat.zero ell) (Rat.rationalize ln_gap) in
  let dual = (Simplex.solve_exn (Hbl_lp.partition_footprint spec ~ell ~target)).Simplex.dual in
  let n = Spec.num_arrays spec and y = dual.(0) in
  if Rat.sign y <= 0 then 1.0
  else begin
    let per_y r = Rat.to_float (Rat.div r y) in
    let sigma = per_y (Array.fold_left Rat.add Rat.zero (Array.sub dual 1 n)) in
    let ln_f = ref (Array.fold_left ( +. ) 0.0 ln_l -. ln_gap) in
    Array.iteri (fun i l -> ln_f := !ln_f +. (per_y dual.(1 + n + i) *. l)) ln_l;
    Float.max 1.0 (Float.ceil (Float.exp (!ln_f /. sigma) *. (1.0 -. 1e-9)))
  end

let min_footprint spec ~iterations =
  if iterations <= 1.0 then 1.0
  else
    let ln_space = Array.fold_left (fun acc l -> acc +. log (float_of_int l)) 0.0 spec.Spec.bounds in
    footprint spec ~ln_gap:(Float.max 0.0 (ln_space -. log iterations))

let lower_bound spec ~p =
  if Bigint.to_float (Spec.iteration_count_big spec) <= float_of_int p then 1.0
  else footprint spec ~ln_gap:(log (float_of_int p))

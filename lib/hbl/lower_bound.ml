type exponent = { k_hat : Rat.t; witness_q : int list }

let beta_of_bounds ~m bounds =
  if m < 2 then invalid_arg "Lower_bound.beta_of_bounds: cache size must be >= 2";
  Array.map
    (fun l ->
      if l < 1 then invalid_arg "Lower_bound.beta_of_bounds: non-positive loop bound"
      else if l = 1 then Rat.zero
      else Rat.rationalize (log (float_of_int l) /. log (float_of_int m)))
    bounds

let beta_pow ~base ~m_exp l =
  if base < 2 || m_exp < 1 then invalid_arg "Lower_bound.beta_pow: need base >= 2, m_exp >= 1";
  let rec log_exact acc v =
    if v = 1 then Some acc else if v mod base <> 0 then None else log_exact (acc + 1) (v / base)
  in
  match log_exact 0 l with
  | Some e -> Rat.of_ints e m_exp
  | None -> invalid_arg (Printf.sprintf "Lower_bound.beta_pow: %d is not a power of %d" l base)

let k_of_q spec ~beta ~q =
  (Simplex.solve_exn (Hbl_lp.theorem2_q spec ~beta ~q)).Simplex.objective

let k_of_q_literal spec ~beta ~q =
  let sol = Simplex.solve_exn (Hbl_lp.reduced_hbl spec ~removed:q) in
  let shat = sol.Simplex.primal in
  let acc = ref (Array.fold_left Rat.add Rat.zero shat) in
  List.iter
    (fun j ->
      let rj = Spec.touching_arrays spec j in
      let s_sum = List.fold_left (fun a i -> Rat.add a shat.(i)) Rat.zero rj in
      if Rat.compare s_sum Rat.one <= 0 then
        acc := Rat.add !acc (Rat.mul beta.(j) (Rat.sub Rat.one s_sum)))
    q;
  !acc

let exponent_by_enumeration ?(max_dim = 20) spec ~beta =
  let d = Spec.num_loops spec in
  if d > max_dim then
    invalid_arg
      (Printf.sprintf "Lower_bound.exponent_by_enumeration: d = %d exceeds max_dim = %d" d max_dim);
  let best = ref None in
  for mask = 0 to (1 lsl d) - 1 do
    let q = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init d (fun i -> i)) in
    let k = k_of_q spec ~beta ~q in
    match !best with
    | Some (k0, _) when Rat.compare k0 k <= 0 -> ()
    | _ -> best := Some (k, q)
  done;
  match !best with
  | Some (k_hat, witness_q) -> { k_hat; witness_q }
  | None -> assert false

let exponent_by_lp spec ~beta =
  let d = Spec.num_loops spec in
  let sol = Simplex.solve_exn (Hbl_lp.dual_tiling spec ~beta) in
  let witness_q = List.filter (fun i -> Rat.sign sol.Simplex.primal.(i) > 0) (List.init d Fun.id) in
  { k_hat = sol.Simplex.objective; witness_q }

type bound = {
  exponent : exponent;
  m : int;
  iterations : float;
  tile_cap : float;
  words : float;
  words_paper : float;
  words_classic : float;
  trivial_words : float;
}

let pow_m ~m (e : Rat.t) = Float.exp (Rat.to_float e *. log (float_of_int m))

(* k(Q) = price beta^Q (beta on Q, 1 elsewhere) is antitone in Q inside
   the tight loops T, where every optimal dual's zeta lives, so one
   index-order pass of drops that keep k(Q) = k_hat ends inclusion-minimal.
   k({}) = s_HBL. *)
let witness ~price ~beta ~lambda ~k_hat ~s_hbl =
  let beta_q q = Array.mapi (fun i b -> if List.mem i q then b else Rat.one) beta in
  let d = Array.length beta in
  let tight = List.filter (fun i -> Rat.equal lambda.(i) beta.(i)) (List.init d Fun.id) in
  let drop q i =
    let q' = List.filter (( <> ) i) q in
    if Rat.equal (price (beta_q q')) k_hat then q' else q
  in
  if Rat.equal s_hbl k_hat then [] else List.fold_left drop tight tight

let communication spec ~m ~beta ~price ~lambda ~k_hat =
  let s_hbl = price (Array.make (Array.length beta) Rat.one) in
  let exponent = { k_hat; witness_q = witness ~price ~beta ~lambda ~k_hat ~s_hbl } in
  let iterations = Array.fold_left (fun acc l -> acc *. float_of_int l) 1.0 spec.Spec.bounds in
  let tile_cap = pow_m ~m exponent.k_hat in
  let words_paper = iterations /. tile_cap *. float_of_int m in
  let words_classic = iterations *. pow_m ~m (Rat.sub Rat.one s_hbl) in
  let trivial_words = float_of_int (Spec.total_array_words spec) in
  (* The formula charges M words per tile; with a single tile that
     over-states the requirement (Section 6.3's caveat), so fall back to
     the compulsory traffic in that regime. *)
  let words =
    if iterations > tile_cap *. 1.0000001 then Float.max words_paper trivial_words
    else trivial_words
  in
  { exponent; m; iterations; tile_cap; words; words_paper; words_classic; trivial_words }

let equal a b =
  Rat.equal a.exponent.k_hat b.exponent.k_hat
  && a.exponent.witness_q = b.exponent.witness_q
  && a.m = b.m
  && List.for_all2 Float.equal
       [ a.iterations; a.tile_cap; a.words; a.words_paper; a.words_classic; a.trivial_words ]
       [ b.iterations; b.tile_cap; b.words; b.words_paper; b.words_classic; b.trivial_words ]

let pp_bound fmt b =
  Format.fprintf fmt
    "@[<v>cache M = %d words@,iterations = %.4g@,tile-size cap M^k = %.4g (k = %a = %.4f)@,\
     small-index witness Q = {%s}@,lower bound = %.4g words (paper formula %.4g)@,\
     classic (large-bounds) formula = %.4g words@,trivial array-size bound = %.4g words@]"
    b.m b.iterations b.tile_cap Rat.pp b.exponent.k_hat
    (Rat.to_float b.exponent.k_hat)
    (String.concat "," (List.map string_of_int b.exponent.witness_q))
    b.words b.words_paper b.words_classic b.trivial_words

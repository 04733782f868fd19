let ones n = Array.make n Rat.one

let check_beta spec beta =
  if Array.length beta <> Spec.num_loops spec then invalid_arg "beta arity mismatch";
  Array.iter (fun b -> if Rat.sign b < 0 then invalid_arg "beta must be non-negative") beta

(* One >= 1 constraint per loop index i: sum over arrays touching i. *)
let support_constraints spec ~skip =
  let d = Spec.num_loops spec and n = Spec.num_arrays spec in
  let phi = Spec.support_matrix spec in
  let constrs = ref [] in
  for i = d - 1 downto 0 do
    if not (List.mem i skip) then begin
      let coeffs = Array.init n (fun j -> Rat.of_int phi.(j).(i)) in
      constrs :=
        Lp.constr ~name:(Printf.sprintf "cover_%s" spec.Spec.loops.(i)) coeffs Lp.Ge Rat.one
        :: !constrs
    end
  done;
  !constrs

let hbl spec =
  let n = Spec.num_arrays spec in
  let var_names = Array.map (fun (a : Spec.array_ref) -> "s_" ^ a.Spec.aname) spec.Spec.arrays in
  Lp.make ~var_names Lp.Minimize (ones n) (support_constraints spec ~skip:[])

let reduced_hbl spec ~removed =
  let d = Spec.num_loops spec in
  List.iter
    (fun i -> if i < 0 || i >= d then invalid_arg "Hbl_lp.reduced_hbl: index out of range")
    removed;
  let n = Spec.num_arrays spec in
  let var_names = Array.map (fun (a : Spec.array_ref) -> "s_" ^ a.Spec.aname) spec.Spec.arrays in
  Lp.make ~var_names Lp.Minimize (ones n) (support_constraints spec ~skip:removed)

let tiling spec ~beta =
  check_beta spec beta;
  let d = Spec.num_loops spec in
  let phi = Spec.support_matrix spec in
  let array_constrs =
    Array.to_list
      (Array.mapi
         (fun j (a : Spec.array_ref) ->
           let coeffs = Array.init d (fun i -> Rat.of_int phi.(j).(i)) in
           Lp.constr ~name:(Printf.sprintf "fit_%s" a.Spec.aname) coeffs Lp.Le Rat.one)
         spec.Spec.arrays)
  in
  let bound_constrs =
    List.init d (fun i ->
      let coeffs = Array.make d Rat.zero in
      coeffs.(i) <- Rat.one;
      Lp.constr ~name:(Printf.sprintf "loop_%s" spec.Spec.loops.(i)) coeffs Lp.Le beta.(i))
  in
  let var_names = Array.map (fun l -> "lambda_" ^ l) spec.Spec.loops in
  Lp.make ~var_names Lp.Maximize (ones d) (array_constrs @ bound_constrs)

let dual_tiling spec ~beta =
  check_beta spec beta;
  let d = Spec.num_loops spec and n = Spec.num_arrays spec in
  let phi = Spec.support_matrix spec in
  (* Variables: zeta_1..zeta_d then s_1..s_n, as in (5.6). *)
  let obj = Array.init (d + n) (fun v -> if v < d then beta.(v) else Rat.one) in
  let constrs =
    List.init d (fun i ->
      let coeffs =
        Array.init (d + n) (fun v ->
          if v < d then if v = i then Rat.one else Rat.zero
          else Rat.of_int phi.(v - d).(i))
      in
      Lp.constr ~name:(Printf.sprintf "dual_%s" spec.Spec.loops.(i)) coeffs Lp.Ge Rat.one)
  in
  let var_names =
    Array.init (d + n) (fun v ->
      if v < d then "zeta_" ^ spec.Spec.loops.(v)
      else "s_" ^ spec.Spec.arrays.(v - d).Spec.aname)
  in
  Lp.make ~var_names Lp.Minimize obj constrs

let theorem2_q spec ~beta ~q =
  check_beta spec beta;
  let d = Spec.num_loops spec and n = Spec.num_arrays spec in
  List.iter (fun i -> if i < 0 || i >= d then invalid_arg "Hbl_lp.theorem2_q: index out of range") q;
  let phi = Spec.support_matrix spec in
  let nq = List.length q in
  let q_arr = Array.of_list q in
  (* Variables: s_1..s_n then t_j for j in q. *)
  let obj = Array.init (n + nq) (fun v -> if v < n then Rat.one else beta.(q_arr.(v - n))) in
  let reduced =
    List.map
      (fun (c : Lp.constr) ->
        Lp.constr ~name:c.Lp.cname
          (Array.init (n + nq) (fun v -> if v < n then c.Lp.coeffs.(v) else Rat.zero))
          c.Lp.relation c.Lp.rhs)
      (support_constraints spec ~skip:q)
  in
  let slack_constrs =
    List.mapi
      (fun idx j ->
        (* t_j + sum_{i in R_j} s_i >= 1 encodes t_j >= 1 - sum. *)
        let coeffs =
          Array.init (n + nq) (fun v ->
            if v < n then Rat.of_int phi.(v).(j)
            else if v - n = idx then Rat.one
            else Rat.zero)
        in
        Lp.constr ~name:(Printf.sprintf "small_%s" spec.Spec.loops.(j)) coeffs Lp.Ge Rat.one)
      q
  in
  let var_names =
    Array.init (n + nq) (fun v ->
      if v < n then "s_" ^ spec.Spec.arrays.(v).Spec.aname
      else "t_" ^ spec.Spec.loops.(q_arr.(v - n)))
  in
  Lp.make ~var_names Lp.Minimize obj (reduced @ slack_constrs)

let s_hbl spec = (Simplex.solve_exn (hbl spec)).Simplex.objective

let partition_footprint spec ~ell ~target =
  let d = Spec.num_loops spec in
  if Array.length ell <> d then invalid_arg "Hbl_lp.partition_footprint: ell arity mismatch";
  let phi = Spec.support_matrix spec in
  (* Variables: u then mu_1..mu_d. *)
  let row name f rel rhs = Lp.constr ~name (Array.init (d + 1) f) rel rhs in
  let is_u v = if v = 0 then Rat.one else Rat.zero in
  let fit j (a : Spec.array_ref) =
    row ("fit_" ^ a.Spec.aname) (fun v -> if v = 0 then Rat.one else Rat.of_int (-phi.(j).(v - 1)))
      Lp.Ge Rat.zero
  in
  let loop i =
    row ("loop_" ^ spec.Spec.loops.(i)) (fun v -> if v = i + 1 then Rat.one else Rat.zero) Lp.Le ell.(i)
  in
  Lp.make
    ~var_names:(Array.append [| "u" |] (Array.map (( ^ ) "mu_") spec.Spec.loops))
    Lp.Minimize (Array.init (d + 1) is_u)
    ((row "cover" (fun v -> Rat.sub Rat.one (is_u v)) Lp.Ge target
     :: Array.to_list (Array.mapi fit spec.Spec.arrays))
    @ List.init d loop)

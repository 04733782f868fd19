type piece = { constant : Rat.t; coeffs : Rat.t array }

type t = { loops : string array; box : Rat.t; pieces : piece list }

let eval_piece p beta =
  let acc = ref p.constant in
  Array.iteri (fun i c -> if not (Rat.is_zero c) then acc := Rat.add !acc (Rat.mul c beta.(i))) p.coeffs;
  !acc

let eval t beta =
  if Array.length beta <> Array.length t.loops then invalid_arg "Closed_form.eval: arity";
  match t.pieces with
  | [] -> invalid_arg "Closed_form.eval: empty form"
  | p :: rest -> List.fold_left (fun acc q -> Rat.min acc (eval_piece q beta)) (eval_piece p beta) rest

(* Maximize the margin delta with g_q(beta) - g_p(beta) >= delta for
   every other piece q, inside the box 0 <= beta_i <= box. Variables:
   beta_1..beta_d, delta. A positive optimum means p is the unique
   minimum somewhere in the box, and the optimal beta is such a point. *)
let margin_lp ~box ~d p others =
  let nvars = d + 1 in
  let obj = Array.init nvars (fun v -> if v = d then Rat.one else Rat.zero) in
  let constrs =
    List.map
      (fun q ->
        let coeffs =
          Array.init nvars (fun v ->
            if v = d then Rat.minus_one else Rat.sub q.coeffs.(v) p.coeffs.(v))
        in
        Lp.constr coeffs Lp.Ge (Rat.sub p.constant q.constant))
      others
    @ List.init d (fun i ->
        let coeffs = Array.make nvars Rat.zero in
        coeffs.(i) <- Rat.one;
        Lp.constr coeffs Lp.Le box)
  in
  Lp.make Lp.Maximize obj constrs

(* Deterministic order: by constant, then coefficients. *)
let compare_piece p q =
  let c = Rat.compare p.constant q.constant in
  if c <> 0 then c
  else begin
    let d = Array.length p.coeffs in
    let rec go i =
      if i >= d then 0
      else begin
        let c = Rat.compare p.coeffs.(i) q.coeffs.(i) in
        if c <> 0 then c else go (i + 1)
      end
    in
    go 0
  end

let compute ?(box = Rat.of_int 4) spec =
  let d = Spec.num_loops spec in
  (* The compiled plan's level-0 set holds every vertex of the dual
     polyhedron (plus, possibly, degenerate feasible points: those are
     convex combinations of vertices plus a recession direction, so they
     are never strictly minimal and the pruning below drops them).
     Identical affine functions collapse under [sort_uniq]. *)
  let pieces =
    Tiling_plan.pieces (Tiling_plan.compile spec)
    |> List.map (fun (constant, coeffs) -> { constant; coeffs })
    |> List.sort_uniq compare_piece
  in
  (* Sequentially drop pieces that are nowhere strictly minimal on the
     box: each drop is sound because the remaining pieces pointwise attain
     the same minimum. *)
  let strictly_minimal_somewhere p others =
    match others with
    | [] -> true
    | _ -> (
      match Simplex.solve (margin_lp ~box ~d p others) with
      | Simplex.Optimal sol -> Rat.sign sol.Simplex.objective > 0
      | Simplex.Unbounded _ -> true
      | Simplex.Infeasible -> false)
  in
  let rec prune kept = function
    | [] -> List.rev kept
    | p :: rest ->
      if strictly_minimal_somewhere p (List.rev_append kept rest) then prune (p :: kept) rest
      else prune kept rest
  in
  { loops = spec.Spec.loops; box; pieces = prune [] pieces }

let num_pieces t = List.length t.pieces

(* ------------------------------------------------------------------ *)
(* Parametric critical regions                                        *)
(* ------------------------------------------------------------------ *)

type region = {
  piece : piece;
  inequalities : (Rat.t array * Rat.t) list;
  witness : Rat.t array;
}

(* A strictly interior point of piece [p]'s region. Kept pieces are
   strictly minimal somewhere, so a positive margin exists. *)
let interior_witness ~box ~d p others =
  match others with
  | [] -> Array.make d (Rat.div box Rat.two)
  | _ ->
    let sol = Simplex.solve_exn (margin_lp ~box ~d p others) in
    Array.sub sol.Simplex.primal 0 d

let regions t =
  let d = Array.length t.loops in
  List.map
    (fun p ->
      let others = List.filter (fun q -> q != p) t.pieces in
      let inequalities =
        List.map
          (fun q ->
            (Array.map2 (fun qc pc -> Rat.sub qc pc) q.coeffs p.coeffs, Rat.sub p.constant q.constant))
          others
      in
      { piece = p; inequalities; witness = interior_witness ~box:t.box ~d p others })
    t.pieces

let region_contains r beta =
  List.for_all
    (fun (a, c) ->
      let lhs = ref Rat.zero in
      Array.iteri (fun i ai -> lhs := Rat.add !lhs (Rat.mul ai beta.(i))) a;
      Rat.compare !lhs c >= 0)
    r.inequalities

let pp_linear loops fmt coeffs =
  let printed = ref false in
  Array.iteri
    (fun i c ->
      if not (Rat.is_zero c) then begin
        if !printed then Format.fprintf fmt " + ";
        if not (Rat.equal c Rat.one) then Format.fprintf fmt "%a*" Rat.pp c;
        Format.fprintf fmt "b(%s)" loops.(i);
        printed := true
      end)
    coeffs;
  if not !printed then Format.pp_print_string fmt "0"

let pp_region ~loops fmt r =
  Format.fprintf fmt "@[<v 2>piece ";
  let p = r.piece in
  if not (Rat.is_zero p.constant) then Format.fprintf fmt "%a" Rat.pp p.constant;
  if not (Rat.is_zero p.constant) && not (Vec.is_zero p.coeffs) then
    Format.fprintf fmt " + ";
  if not (Vec.is_zero p.coeffs) then pp_linear loops fmt p.coeffs;
  if Rat.is_zero p.constant && Vec.is_zero p.coeffs then Format.fprintf fmt "0";
  Format.fprintf fmt " is optimal where:@,";
  List.iter
    (fun (a, c) -> Format.fprintf fmt "%a >= %a@," (pp_linear loops) a Rat.pp c)
    r.inequalities;
  Format.fprintf fmt "(witness beta = [%s])@]"
    (String.concat "; " (List.map Rat.to_string (Array.to_list r.witness)))

let pp fmt t =
  Format.fprintf fmt "min(";
  List.iteri
    (fun idx p ->
      if idx > 0 then Format.fprintf fmt ", ";
      let printed = ref false in
      if not (Rat.is_zero p.constant) then begin
        Format.fprintf fmt "%a" Rat.pp p.constant;
        printed := true
      end;
      Array.iteri
        (fun i c ->
          if not (Rat.is_zero c) then begin
            if !printed then Format.fprintf fmt " + ";
            if not (Rat.equal c Rat.one) then Format.fprintf fmt "%a*" Rat.pp c;
            Format.fprintf fmt "b(%s)" t.loops.(i);
            printed := true
          end)
        p.coeffs;
      if not !printed then Format.fprintf fmt "0")
    t.pieces;
  Format.fprintf fmt ")"

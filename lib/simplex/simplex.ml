
(* Two-phase full-tableau primal simplex with Bland's rule, over exact
   rationals. Problem sizes in this project are tiny (tens of rows), so the
   dense tableau is the right tradeoff: simple, exact, and obviously
   correct. *)

type solution = {
  objective : Rat.t;
  primal : Rat.t array;
  dual : Rat.t array;
  pivots : int;
  basis : int array;
}

type result = Optimal of solution | Unbounded of { direction : Rat.t array } | Infeasible

type col_kind = Structural of int | Slack of int | Surplus of int | Artificial of int

type state = {
  m : int;  (** rows *)
  n : int;  (** structural variables *)
  ncols : int;  (** total columns, excluding the rhs *)
  tab : Rat.t array array;  (** m rows of [ncols + 1]; last entry is the rhs *)
  basis : int array;  (** column basic in each row *)
  kinds : col_kind array;
  allowed : bool array;  (** artificials are banned from entering in phase 2 *)
  red : Rat.t array;  (** reduced-cost row for the current phase, length ncols *)
  mutable pivot_count : int;
  mutable bland_ties : int;  (** minimum-ratio ties settled by Bland's index rule *)
}

let c_solves = Obs.counter "simplex.solves"
let c_pivots = Obs.counter "simplex.pivots"
let c_bland_ties = Obs.counter "simplex.bland_ties"
let c_max_rows = Obs.counter "simplex.max_rows"
let c_max_cols = Obs.counter "simplex.max_cols"

let pivot st r c =
  let last = st.ncols in
  let p = st.tab.(r).(c) in
  let inv_p = Rat.inv p in
  for j = 0 to last do
    st.tab.(r).(j) <- Rat.mul inv_p st.tab.(r).(j)
  done;
  for i = 0 to st.m - 1 do
    if i <> r && not (Rat.is_zero st.tab.(i).(c)) then begin
      let f = st.tab.(i).(c) in
      for j = 0 to last do
        st.tab.(i).(j) <- Rat.sub st.tab.(i).(j) (Rat.mul f st.tab.(r).(j))
      done
    end
  done;
  if not (Rat.is_zero st.red.(c)) then begin
    let f = st.red.(c) in
    for j = 0 to st.ncols - 1 do
      st.red.(j) <- Rat.sub st.red.(j) (Rat.mul f st.tab.(r).(j))
    done
  end;
  st.basis.(r) <- c;
  st.pivot_count <- st.pivot_count + 1

(* Recompute the reduced-cost row for cost vector [costs] (length ncols)
   given the current basis. *)
let load_costs st costs =
  Array.blit costs 0 st.red 0 st.ncols;
  for r = 0 to st.m - 1 do
    let cb = costs.(st.basis.(r)) in
    if not (Rat.is_zero cb) then
      for j = 0 to st.ncols - 1 do
        st.red.(j) <- Rat.sub st.red.(j) (Rat.mul cb st.tab.(r).(j))
      done
  done

type phase_outcome = Phase_optimal | Phase_unbounded of int

(* Bland's rule: entering = lowest-index column with negative reduced cost;
   leaving = among minimum-ratio rows, the one with the lowest-index basic
   variable. Guarantees termination even on degenerate problems. *)
let run_phase st : phase_outcome =
  let last = st.ncols in
  let rec step () =
    let entering = ref (-1) in
    (try
       for j = 0 to st.ncols - 1 do
         if st.allowed.(j) && Rat.sign st.red.(j) < 0 then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then Phase_optimal
    else begin
      let c = !entering in
      let leave = ref (-1) in
      let best = ref Rat.zero in
      for r = 0 to st.m - 1 do
        if Rat.sign st.tab.(r).(c) > 0 then begin
          let ratio = Rat.div st.tab.(r).(last) st.tab.(r).(c) in
          if !leave < 0 || Rat.compare ratio !best < 0 then begin
            leave := r;
            best := ratio
          end
          else if Rat.equal ratio !best then begin
            (* Degenerate minimum-ratio tie: Bland's rule picks the row
               whose basic variable has the lowest index. *)
            st.bland_ties <- st.bland_ties + 1;
            if st.basis.(r) < st.basis.(!leave) then leave := r
          end
        end
      done;
      if !leave < 0 then Phase_unbounded c
      else begin
        pivot st !leave c;
        step ()
      end
    end
  in
  step ()

let objective_value st costs =
  let acc = ref Rat.zero in
  for r = 0 to st.m - 1 do
    acc := Rat.add !acc (Rat.mul costs.(st.basis.(r)) st.tab.(r).(st.ncols))
  done;
  !acc

let t_solve = Obs.timer "simplex.solve"

(* Initial tableau plus the metadata needed to read a solution back out:
   rhs-sign flips and, per row, the column whose reduced cost carries that
   row's dual multiplier. Shared by [solve_tableau] and [certify], which
   must agree on the column layout bit for bit (it is also the layout
   [Simplex_float] mirrors, so a float basis indexes directly into it). *)
type prepared = {
  st : state;
  flips : Rat.t array;
  dual_col : int array;
  dual_sign : Rat.t array;
  n_art : int;
}

let prepare (lp : Lp.t) : prepared =
  let m = Lp.num_constraints lp in
  let n = Lp.num_vars lp in
  let constrs = Lp.constraints lp in
  (* Normalize every row to a non-negative rhs; remember the flip so the
     reported duals refer to the constraints as the caller wrote them. *)
  let flips = Array.make m Rat.one in
  let rows =
    Array.mapi
      (fun i (c : Lp.constr) ->
        if Rat.sign c.rhs < 0 then begin
          flips.(i) <- Rat.minus_one;
          let rel = match c.relation with Lp.Le -> Lp.Ge | Lp.Ge -> Lp.Le | Lp.Eq -> Lp.Eq in
          (Vec.neg c.coeffs, rel, Rat.neg c.rhs)
        end
        else (Vec.copy c.coeffs, c.relation, c.rhs))
      constrs
  in
  (* Column layout: structurals, then one slack or surplus per inequality,
     then one artificial per Ge/Eq row. *)
  let n_slack = ref 0 and n_art = ref 0 in
  Array.iter
    (fun (_, rel, _) ->
      match rel with
      | Lp.Le -> incr n_slack
      | Lp.Ge ->
        incr n_slack;
        incr n_art
      | Lp.Eq -> incr n_art)
    rows;
  let ncols = n + !n_slack + !n_art in
  let kinds = Array.make ncols (Structural 0) in
  for j = 0 to n - 1 do
    kinds.(j) <- Structural j
  done;
  let tab = Array.init m (fun _ -> Array.make (ncols + 1) Rat.zero) in
  let basis = Array.make m (-1) in
  let dual_col = Array.make m (-1) in
  (* dual_sign.(i): y_i = dual_sign * reduced cost of dual_col at optimum. *)
  let dual_sign = Array.make m Rat.one in
  let next_slack = ref n in
  let next_art = ref (n + !n_slack) in
  Array.iteri
    (fun i (coeffs, rel, rhs) ->
      Array.blit coeffs 0 tab.(i) 0 n;
      tab.(i).(ncols) <- rhs;
      (match rel with
      | Lp.Le ->
        let s = !next_slack in
        incr next_slack;
        kinds.(s) <- Slack i;
        tab.(i).(s) <- Rat.one;
        basis.(i) <- s;
        dual_col.(i) <- s;
        dual_sign.(i) <- Rat.minus_one
      | Lp.Ge ->
        let s = !next_slack in
        incr next_slack;
        kinds.(s) <- Surplus i;
        tab.(i).(s) <- Rat.minus_one;
        dual_col.(i) <- s;
        dual_sign.(i) <- Rat.one;
        let a = !next_art in
        incr next_art;
        kinds.(a) <- Artificial i;
        tab.(i).(a) <- Rat.one;
        basis.(i) <- a
      | Lp.Eq ->
        let a = !next_art in
        incr next_art;
        kinds.(a) <- Artificial i;
        tab.(i).(a) <- Rat.one;
        basis.(i) <- a;
        dual_col.(i) <- a;
        dual_sign.(i) <- Rat.minus_one);
      ())
    rows;
  let st =
    {
      m;
      n;
      ncols;
      tab;
      basis;
      kinds;
      allowed = Array.make ncols true;
      red = Array.make ncols Rat.zero;
      pivot_count = 0;
      bland_ties = 0;
    }
  in
  { st; flips; dual_col; dual_sign; n_art = !n_art }

(* Phase-2 cost row: the user's objective on structural columns,
   normalized to a minimization. *)
let phase2_costs (lp : Lp.t) st =
  let minimize = Lp.direction lp = Lp.Minimize in
  Array.init st.ncols (fun j ->
    match st.kinds.(j) with
    | Structural v ->
      let c = (Lp.objective lp).(v) in
      if minimize then c else Rat.neg c
    | _ -> Rat.zero)

(* Read the optimal solution out of a tableau whose reduced-cost row holds
   the phase-2 costs for the current basis. *)
let extract_solution (lp : Lp.t) { st; flips; dual_col; dual_sign; _ } costs =
  let minimize = Lp.direction lp = Lp.Minimize in
  let primal = Array.make st.n Rat.zero in
  for r = 0 to st.m - 1 do
    match st.kinds.(st.basis.(r)) with
    | Structural v -> primal.(v) <- st.tab.(r).(st.ncols)
    | _ -> ()
  done;
  let obj_min = objective_value st costs in
  let objective = if minimize then obj_min else Rat.neg obj_min in
  let dual =
    Array.init st.m (fun i ->
      let y_min = Rat.mul dual_sign.(i) st.red.(dual_col.(i)) in
      let y_dirfixed = if minimize then y_min else Rat.neg y_min in
      Rat.mul flips.(i) y_dirfixed)
  in
  { objective; primal; dual; pivots = st.pivot_count; basis = Array.copy st.basis }

let solve_tableau (lp : Lp.t) : result =
  let ({ st; n_art; _ } as p) = prepare lp in
  let m = st.m in
  let ncols = st.ncols in
  let record result =
    Obs.incr c_solves;
    Obs.incr ~by:st.pivot_count c_pivots;
    Obs.incr ~by:st.bland_ties c_bland_ties;
    Obs.record_max c_max_rows st.m;
    Obs.record_max c_max_cols st.ncols;
    result
  in
  (* ---- Phase 1: drive the artificials to zero. ---- *)
  let phase1_costs =
    Array.init ncols (fun j -> match st.kinds.(j) with Artificial _ -> Rat.one | _ -> Rat.zero)
  in
  let infeasible =
    if n_art = 0 then false
    else begin
      load_costs st phase1_costs;
      match run_phase st with
      | Phase_unbounded _ ->
        (* Phase-1 objective is bounded below by 0; unbounded is impossible. *)
        assert false
      | Phase_optimal -> Rat.sign (objective_value st phase1_costs) > 0
    end
  in
  if infeasible then record Infeasible
  else begin
    (* Ban artificials and pivot any still-basic (necessarily zero-valued)
       artificial out of the basis when possible; rows where that fails are
       redundant and harmless. *)
    Array.iteri
      (fun j k -> match k with Artificial _ -> st.allowed.(j) <- false | _ -> ())
      st.kinds;
    for r = 0 to m - 1 do
      (match st.kinds.(st.basis.(r)) with
      | Artificial _ ->
        let found = ref false in
        let j = ref 0 in
        while (not !found) && !j < ncols do
          if st.allowed.(!j) && not (Rat.is_zero st.tab.(r).(!j)) then begin
            pivot st r !j;
            found := true
          end;
          incr j
        done
      | _ -> ())
    done;
    (* ---- Phase 2: optimize the user's objective (as a minimization). ---- *)
    let costs = phase2_costs lp st in
    load_costs st costs;
    match run_phase st with
    | Phase_unbounded c ->
      (* Build the improving ray in structural-variable space. *)
      let dir = Array.make st.n Rat.zero in
      (match st.kinds.(c) with Structural v -> dir.(v) <- Rat.one | _ -> ());
      for r = 0 to m - 1 do
        match st.kinds.(st.basis.(r)) with
        | Structural v -> dir.(v) <- Rat.neg st.tab.(r).(c)
        | _ -> ()
      done;
      record (Unbounded { direction = dir })
    | Phase_optimal -> record (Optimal (extract_solution lp p costs))
  end

(* Every exact solve is timed (the histogram prices the exact-arithmetic
   choice, cf. bench E16) and traced as a "simplex.solve" span. *)
let solve lp =
  Obs.Trace.with_span "simplex.solve" (fun () ->
    Obs.time t_solve (fun () -> solve_tableau lp))

let solve_exn lp =
  match solve lp with
  | Optimal s -> s
  | Unbounded _ -> failwith "Simplex.solve_exn: unbounded"
  | Infeasible -> failwith "Simplex.solve_exn: infeasible"

(* Exact optimality certificate for a candidate basis (e.g. the one the
   float solver landed on). Gauss-Jordan-eliminate the basis columns,
   then check primal feasibility (non-negative basic values) and dual
   feasibility (non-negative reduced costs on every real column). Both
   checks passing proves the basis optimal, so the extracted solution is
   exact — no simplex pivoting ran. Any failure (singular, artificial in
   the basis, an infeasibility) returns [None]; callers fall back to
   [solve]. *)
let certify (lp : Lp.t) ~basis : solution option =
  let ({ st; _ } as p) = prepare lp in
  let plausible =
    Array.length basis = st.m
    && Array.for_all
         (fun c ->
           c >= 0 && c < st.ncols
           && match st.kinds.(c) with Artificial _ -> false | _ -> true)
         basis
    &&
    let seen = Array.make st.ncols false in
    Array.for_all
      (fun c ->
        if seen.(c) then false
        else begin
          seen.(c) <- true;
          true
        end)
      basis
  in
  if not plausible then None
  else begin
    (* Pivot each basis column into some not-yet-used row; failure to find
       a nonzero entry means the columns are linearly dependent. *)
    let used = Array.make st.m false in
    let singular = ref false in
    Array.iter
      (fun c ->
        if not !singular then begin
          let r = ref (-1) in
          for i = 0 to st.m - 1 do
            if !r < 0 && (not used.(i)) && not (Rat.is_zero st.tab.(i).(c)) then r := i
          done;
          if !r < 0 then singular := true
          else begin
            used.(!r) <- true;
            pivot st !r c
          end
        end)
      basis;
    if !singular then None
    else begin
      let primal_feasible = ref true in
      for r = 0 to st.m - 1 do
        if Rat.sign st.tab.(r).(st.ncols) < 0 then primal_feasible := false
      done;
      if not !primal_feasible then None
      else begin
        let costs = phase2_costs lp st in
        load_costs st costs;
        let dual_feasible = ref true in
        for j = 0 to st.ncols - 1 do
          match st.kinds.(j) with
          | Artificial _ -> ()
          | _ -> if Rat.sign st.red.(j) < 0 then dual_feasible := false
        done;
        if not !dual_feasible then None else Some (extract_solution lp p costs)
      end
    end
  end

let dual_objective lp y =
  let constrs = Lp.constraints lp in
  let acc = ref Rat.zero in
  Array.iteri (fun i (c : Lp.constr) -> acc := Rat.add !acc (Rat.mul y.(i) c.rhs)) constrs;
  !acc

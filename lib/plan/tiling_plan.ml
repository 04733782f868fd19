(* A plan stores, for every loop suffix {k..d-1} of the shape, the full
   vertex set of the suffix's dual polyhedron

     D_k = { (zeta, s) >= 0 : zeta_i + sum_{j : i in supp j} s_j >= 1,
             i in {k..d-1} }

   (variables: s_j for arrays whose support meets the suffix, zeta_i for
   suffix loops). By LP duality the suffix tiling LP with per-array
   capacities c and bounds beta has value min over D_k of
   [s.c + zeta.beta] for every c, beta >= 0, and the minimum is attained
   at a vertex — so the stored sets price every residual subproblem the
   greedy lex-max elimination in [answer] encounters. No box enters
   anywhere: plans are exact for all beta >= 0. *)

type vertex = {
  vs : Rat.t array;  (* s multipliers, one per plan array row (zeros off-support) *)
  vz : Rat.t array;  (* zeta multipliers, one per suffix loop, offset by the level *)
}

type t = {
  key : string;
  d : int;
  supports : int array array;  (* canonical row order, see [shape_key] *)
  levels : vertex list array;  (* length d+1; levels.(d) = [] (empty suffix) *)
}

let string_of_mode = function Spec.Read -> "r" | Spec.Write -> "w" | Spec.Update -> "u"

let render_row mode support =
  Printf.sprintf "%s:%s" (string_of_mode mode)
    (String.concat "," (List.map string_of_int (Array.to_list support)))

let shape_key (spec : Spec.t) =
  let rows =
    Array.to_list spec.Spec.arrays
    |> List.map (fun (a : Spec.array_ref) -> render_row a.Spec.mode a.Spec.support)
    |> List.sort String.compare
  in
  Printf.sprintf "d=%d;A=%s" (Spec.num_loops spec) (String.concat "|" rows)

let key t = t.key
let dims t = (t.d, Array.length t.supports)
let num_pieces t = List.length t.levels.(0)
let pieces t = List.map (fun v -> (Array.fold_left Rat.add Rat.zero v.vs, v.vz)) t.levels.(0)
let num_vertices t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.levels

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)
(* ------------------------------------------------------------------ *)

let binomial n k =
  let k = min k (n - k) in
  if k < 0 then 0.0
  else begin
    let acc = ref 1.0 in
    for i = 1 to k do
      acc := !acc *. float_of_int (n - k + i) /. float_of_int i
    done;
    !acc
  end

(* Candidate (S, T) pairs across all levels; each costs one |S| x |S|
   exact solve, so this bounds compile time directly. *)
let enumeration_budget = 200_000.0

let candidate_count ~d ~per_level_arrays =
  let total = ref 0.0 in
  for k = 0 to d - 1 do
    let nj = per_level_arrays.(k) and dk = d - k in
    for m = 0 to min nj dk do
      total := !total +. (binomial nj m *. binomial dk m)
    done
  done;
  !total

let iter_subsets (xs : int array) m f =
  let n = Array.length xs in
  if m = 0 then f [||]
  else begin
    let choice = Array.make m 0 in
    let rec go pos start =
      if pos = m then f (Array.map (fun i -> xs.(i)) choice)
      else
        for i = start to n - (m - pos) do
          choice.(pos) <- i;
          go (pos + 1) (i + 1)
        done
    in
    go 0 0
  end

let mem_support i sup = Array.exists (fun x -> x = i) sup

let compare_rat_arrays a b =
  let n = Array.length a in
  let rec cmp i =
    if i = n then 0
    else
      let c = Rat.compare a.(i) b.(i) in
      if c <> 0 then c else cmp (i + 1)
  in
  cmp 0

let compare_vertex v1 v2 =
  let c = compare_rat_arrays v1.vs v2.vs in
  if c <> 0 then c else compare_rat_arrays v1.vz v2.vz

(* All vertices of D_k: choose the set S of arrays with s_j > 0 and an
   equal-sized set T of suffix loops whose cover constraint is tight
   with zeta = 0; s solves the square system, the remaining zetas are
   forced. Every emitted point is feasible, every vertex of D_k arises
   from some (S, T), and extra (degenerate) feasible points cannot lower
   the minimum below the LP value — so the set is safe to take minima
   over even without an exact vertex test. *)
let enumerate_level ~(supports : int array array) ~d ~k =
  let n = Array.length supports in
  let js =
    Array.init n Fun.id
    |> Array.to_list
    |> List.filter (fun j -> Array.exists (fun i -> i >= k) supports.(j))
    |> Array.of_list
  in
  let dk = d - k in
  let suffix = Array.init dk (fun i -> k + i) in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let emit s_full =
    let z =
      Array.map
        (fun i ->
          let cover = ref Rat.zero in
          for j = 0 to n - 1 do
            if mem_support i supports.(j) then cover := Rat.add !cover s_full.(j)
          done;
          Rat.max Rat.zero (Rat.sub Rat.one !cover))
        suffix
    in
    let render =
      String.concat ","
        (Array.to_list (Array.map Rat.to_string s_full)
        @ Array.to_list (Array.map Rat.to_string z))
    in
    if not (Hashtbl.mem seen render) then begin
      Hashtbl.add seen render ();
      out := { vs = s_full; vz = z } :: !out
    end
  in
  for m = 0 to min (Array.length js) dk do
    iter_subsets js m (fun sel_s ->
      iter_subsets suffix m (fun sel_t ->
        if m = 0 then emit (Array.make n Rat.zero)
        else begin
          let a =
            Mat.init m m (fun r c ->
              if mem_support sel_t.(r) supports.(sel_s.(c)) then Rat.one else Rat.zero)
          in
          match Mat.solve a (Vec.make m Rat.one) with
          | None -> ()
          | Some sv ->
            let ok = ref true in
            for c = 0 to m - 1 do
              if Rat.sign sv.(c) < 0 then ok := false
            done;
            if !ok then begin
              let s_full = Array.make n Rat.zero in
              for c = 0 to m - 1 do
                s_full.(sel_s.(c)) <- sv.(c)
              done;
              emit s_full
            end
        end))
  done;
  List.sort compare_vertex !out

let compile (spec : Spec.t) =
  let d = Spec.num_loops spec in
  let rows =
    Array.to_list spec.Spec.arrays
    |> List.map (fun (a : Spec.array_ref) ->
         (render_row a.Spec.mode a.Spec.support, a.Spec.support))
    |> List.sort (fun (r1, _) (r2, _) -> String.compare r1 r2)
  in
  let supports = Array.of_list (List.map snd rows) in
  let per_level_arrays =
    Array.init d (fun k ->
      Array.fold_left
        (fun acc sup -> if Array.exists (fun i -> i >= k) sup then acc + 1 else acc)
        0 supports)
  in
  let candidates = candidate_count ~d ~per_level_arrays in
  if candidates > enumeration_budget then
    invalid_arg
      (Printf.sprintf
         "Tiling_plan.compile: shape too large for plan compilation (~%.0f candidate \
          bases, budget %.0f)"
         candidates enumeration_budget);
  let levels =
    Array.init (d + 1) (fun k ->
      if k = d then [] else enumerate_level ~supports ~d ~k)
  in
  { key = shape_key spec; d; supports; levels }

(* ------------------------------------------------------------------ *)
(* Answering                                                          *)
(* ------------------------------------------------------------------ *)

(* Objective of one level-k vertex against capacities c and the beta
   suffix starting at loop k. *)
let vertex_value ~k v c beta =
  let acc = ref Rat.zero in
  Array.iteri (fun j sj -> if Rat.sign sj <> 0 then acc := Rat.add !acc (Rat.mul sj c.(j))) v.vs;
  Array.iteri (fun i zi -> if Rat.sign zi <> 0 then acc := Rat.add !acc (Rat.mul zi beta.(k + i))) v.vz;
  !acc

let check_beta t beta =
  if Array.length beta <> t.d then invalid_arg "Tiling_plan.answer: beta arity mismatch";
  Array.iter
    (fun b -> if Rat.sign b < 0 then invalid_arg "Tiling_plan.answer: beta must be non-negative")
    beta

let level_value t ~k c beta =
  match t.levels.(k) with
  | [] -> Rat.zero
  | v0 :: rest ->
    List.fold_left
      (fun acc v -> Rat.min acc (vertex_value ~k v c beta))
      (vertex_value ~k v0 c beta)
      rest

let value t ~beta =
  check_beta t beta;
  let c = Array.make (Array.length t.supports) Rat.one in
  level_value t ~k:0 c beta

let answer t ~beta =
  check_beta t beta;
  let n = Array.length t.supports in
  let c = Array.make n Rat.one in
  let v0 = level_value t ~k:0 c beta in
  let v = ref v0 in
  let lambda = Array.make t.d Rat.zero in
  for k = 0 to t.d - 1 do
    (* Own constraints of lambda_k: its bound and every capacity it draws on. *)
    let u = ref beta.(k) in
    Array.iteri (fun j sup -> if mem_support k sup then u := Rat.min !u c.(j)) t.supports;
    (* Raising lambda_k to t changes the suffix value to
       min_w (a_w - t * s_w.A_k); optimality survives while
       t + suffix(t) >= v, i.e. while every vertex with negative slope
       kappa_w = 1 - s_w.A_k still prices at least v. *)
    let step = ref !u in
    List.iter
      (fun w ->
        let touch = ref Rat.zero in
        Array.iteri
          (fun j sj ->
            if Rat.sign sj <> 0 && mem_support k t.supports.(j) then
              touch := Rat.add !touch sj)
          w.vs;
        let kappa = Rat.sub Rat.one !touch in
        if Rat.sign kappa < 0 then begin
          let a = vertex_value ~k:(k + 1) w c beta in
          step := Rat.min !step (Rat.div (Rat.sub a !v) (Rat.neg kappa))
        end)
      t.levels.(k + 1);
    lambda.(k) <- !step;
    Array.iteri (fun j sup -> if mem_support k sup then c.(j) <- Rat.sub c.(j) !step) t.supports;
    v := Rat.sub !v !step
  done;
  if not (Rat.is_zero !v) then
    failwith "Tiling_plan.answer: plan inconsistent (incomplete vertex set?)";
  (lambda, v0)

let dual t (spec : Spec.t) ~beta =
  if not (String.equal (shape_key spec) t.key) then
    invalid_arg "Tiling_plan.dual: spec shape does not match this plan";
  check_beta t beta;
  let n = Array.length t.supports in
  let c = Array.make n Rat.one in
  let best = ref None in
  List.iter
    (fun w ->
      let v = vertex_value ~k:0 w c beta in
      match !best with
      | Some (bv, _) when Rat.compare bv v <= 0 -> ()
      | _ -> best := Some (v, w))
    t.levels.(0);
  match !best with
  | None -> invalid_arg "Tiling_plan.dual: empty plan"
  | Some (_, w) ->
    (* Stored rows are sorted by their canonical rendering; sorting the
       spec's arrays the same way aligns row r with spec array order.(r)
       (arrays with identical rows are interchangeable multipliers). *)
    let order =
      Array.init n Fun.id |> Array.to_list
      |> List.sort (fun j1 j2 ->
           String.compare
             (render_row spec.Spec.arrays.(j1).Spec.mode spec.Spec.arrays.(j1).Spec.support)
             (render_row spec.Spec.arrays.(j2).Spec.mode spec.Spec.arrays.(j2).Spec.support))
      |> Array.of_list
    in
    let out = Array.make (n + t.d) Rat.zero in
    Array.iteri (fun r j -> out.(j) <- w.vs.(r)) order;
    Array.iteri (fun i zi -> out.(n + i) <- zi) w.vz;
    out

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\"shape\":%s,\"d\":%d," (Jsonlite.quote t.key) t.d);
  Buffer.add_string buf "\"supports\":[";
  Array.iteri
    (fun j sup ->
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      Array.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int x))
        sup;
      Buffer.add_char buf ']')
    t.supports;
  Buffer.add_string buf "],\"levels\":[";
  Array.iteri
    (fun k verts ->
      if k > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          let rats arr =
            String.concat ","
              (Array.to_list (Array.map (fun r -> "\"" ^ Rat.to_string r ^ "\"") arr))
          in
          Buffer.add_string buf (Printf.sprintf "{\"s\":[%s],\"z\":[%s]}" (rats v.vs) (rats v.vz)))
        verts;
      Buffer.add_char buf ']')
    t.levels;
  Buffer.add_string buf "]}";
  Buffer.contents buf

let of_json json =
  let ( let* ) r f = Result.bind r f in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* key =
    match Jsonlite.str_member "shape" json with
    | Some s -> Ok s
    | None -> fail "plan: missing \"shape\""
  in
  let* d =
    match Jsonlite.num_member "d" json with
    | Some f when Float.is_integer f && f >= 1.0 && f < 1e6 -> Ok (int_of_float f)
    | _ -> fail "plan: \"d\" must be a positive integer"
  in
  let* supports_json =
    match Jsonlite.list_member "supports" json with
    | Some l -> Ok l
    | None -> fail "plan: missing \"supports\""
  in
  let parse_support v =
    match v with
    | Jsonlite.Arr items ->
      let rec go acc last = function
        | [] -> Ok (Array.of_list (List.rev acc))
        | Jsonlite.Num f :: rest when Float.is_integer f ->
          let i = int_of_float f in
          if i < 0 || i >= d then fail "plan: support index out of range"
          else if i <= last then fail "plan: support indices must be strictly increasing"
          else go (i :: acc) i rest
        | _ -> fail "plan: support entries must be integers"
      in
      go [] (-1) items
    | _ -> fail "plan: each support must be an array"
  in
  let* supports =
    List.fold_left
      (fun acc v ->
        let* acc = acc in
        let* s = parse_support v in
        Ok (s :: acc))
      (Ok []) supports_json
    |> Result.map (fun l -> Array.of_list (List.rev l))
  in
  let n = Array.length supports in
  if n = 0 then fail "plan: needs at least one array"
  else
    let parse_rats label expected v =
      match v with
      | Jsonlite.Arr items ->
        if List.length items <> expected then fail "plan: %s has wrong arity" label
        else
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              match item with
              | Jsonlite.Str s -> (
                match Rat.of_string_opt s with
                | Some r when Rat.sign r >= 0 -> Ok (r :: acc)
                | Some _ -> fail "plan: %s entries must be non-negative" label
                | None -> fail "plan: %s entry %S is not a rational" label s)
              | _ -> fail "plan: %s entries must be rational strings" label)
            (Ok []) items
          |> Result.map (fun l -> Array.of_list (List.rev l))
      | _ -> fail "plan: %s must be an array" label
    in
    let parse_vertex ~k v =
      match v with
      | Jsonlite.Obj _ ->
        let* vs =
          match Jsonlite.member "s" v with
          | Some s -> parse_rats "vertex \"s\"" n s
          | None -> fail "plan: vertex missing \"s\""
        in
        let* vz =
          match Jsonlite.member "z" v with
          | Some z -> parse_rats "vertex \"z\"" (d - k) z
          | None -> fail "plan: vertex missing \"z\""
        in
        (* Dual feasibility over the suffix: a vertex violating it could
           price a residual problem below its true value and corrupt
           answers silently. *)
        let feasible = ref true in
        for i = k to d - 1 do
          let cover = ref vz.(i - k) in
          for j = 0 to n - 1 do
            if mem_support i supports.(j) then cover := Rat.add !cover vs.(j)
          done;
          if Rat.compare !cover Rat.one < 0 then feasible := false
        done;
        if not !feasible then fail "plan: infeasible vertex at level %d" k
        else Ok { vs; vz }
      | _ -> fail "plan: vertices must be objects"
    in
    let* levels_json =
      match Jsonlite.list_member "levels" json with
      | Some l -> Ok l
      | None -> fail "plan: missing \"levels\""
    in
    if List.length levels_json <> d + 1 then fail "plan: expected %d levels" (d + 1)
    else
      let* levels =
        List.fold_left
          (fun acc (k, v) ->
            let* acc = acc in
            match v with
            | Jsonlite.Arr items ->
              let* verts =
                List.fold_left
                  (fun acc item ->
                    let* acc = acc in
                    let* vx = parse_vertex ~k item in
                    Ok (vx :: acc))
                  (Ok []) items
              in
              Ok (List.rev verts :: acc)
            | _ -> fail "plan: each level must be an array")
          (Ok [])
          (List.mapi (fun k v -> (k, v)) levels_json)
        |> Result.map (fun l -> Array.of_list (List.rev l))
      in
      if levels.(0) = [] then fail "plan: level 0 must be non-empty"
      else Ok { key; d; supports; levels }

type t = Untiled | Permuted of int array | Tiled of int array | Nested of int array list

let classic_tile ?(clamp = true) spec ~m =
  let n = Spec.num_arrays spec in
  let a_max =
    Array.fold_left
      (fun acc (a : Spec.array_ref) -> max acc (Array.length a.Spec.support))
      1 spec.Spec.arrays
  in
  let budget = float_of_int (max 1 (m / n)) in
  let side = int_of_float (Float.pow budget (1.0 /. float_of_int a_max)) in
  let side = max 1 side in
  Array.init (Spec.num_loops spec) (fun i ->
    if clamp then min side spec.Spec.bounds.(i) else side)

let validate_tile spec b =
  if Array.length b <> Spec.num_loops spec then Error "tile arity mismatch"
  else begin
    let bad = ref None in
    Array.iteri
      (fun i bi ->
        if !bad = None && (bi < 1 || bi > spec.Spec.bounds.(i)) then
          bad :=
            Some
              (Printf.sprintf "tile dimension %d = %d outside [1, %d] for loop %s" i bi
                 spec.Spec.bounds.(i) spec.Spec.loops.(i)))
      b;
    match !bad with None -> Ok () | Some msg -> Error msg
  end

let is_permutation d p =
  Array.length p = d
  &&
  let seen = Array.make d false in
  Array.for_all
    (fun i ->
      if i < 0 || i >= d || seen.(i) then false
      else begin
        seen.(i) <- true;
        true
      end)
    p

let validate spec = function
  | Untiled -> Ok ()
  | Permuted p ->
    if is_permutation (Spec.num_loops spec) p then Ok ()
    else Error "not a permutation of the loop indices"
  | Tiled b -> validate_tile spec b
  | Nested [] -> Error "nested schedule needs at least one level"
  | Nested tiles ->
    let rec check prev = function
      | [] -> Ok ()
      | b :: rest -> (
        match validate_tile spec b with
        | Error _ as e -> e
        | Ok () -> (
          match prev with
          | Some p when not (Array.for_all2 (fun inner outer -> inner <= outer) p b) ->
            Error "nested tiles must grow (elementwise) from inner to outer"
          | _ -> check (Some b) rest))
    in
    check None tiles

(* One traversal of the tiling levels for every consumer: rows are the
   unit, and [iterate] only unrolls each row into its points. *)
let iterate_rows spec sched f =
  (match validate spec sched with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Schedules.iterate: " ^ msg));
  let d = Spec.num_loops spec in
  let bounds = spec.Spec.bounds in
  let point = Array.make d 0 in
  (* The rows of the box [lo, hi) in lexicographic order over [order]
     (outermost first). The row runs along the innermost loop with more
     than one value in the box (the last loop when none has); the loops
     inside it have a single value and stay fixed at it, so rows stay
     long when the innermost tile extent is 1. *)
  let box order lo hi =
    let row = ref (d - 1) in
    while !row > 0 && hi.(order.(!row)) - lo.(order.(!row)) = 1 do
      point.(order.(!row)) <- lo.(order.(!row));
      decr row
    done;
    let row = !row in
    let rec rows k =
      let i = order.(k) in
      if k = row then begin
        point.(i) <- lo.(i);
        f point i lo.(i) hi.(i)
      end
      else
        for v = lo.(i) to hi.(i) - 1 do
          point.(i) <- v;
          rows (k + 1)
        done
    in
    rows 0
  in
  let identity = Array.init d (fun i -> i) and origin = Array.make d 0 in
  match sched with
  | Untiled -> box identity origin bounds
  | Permuted p -> box p origin bounds
  | Tiled _ | Nested _ ->
    (* Outermost tile level first; [levels = []] means single points. *)
    let levels =
      match sched with
      | Tiled b -> [ b ]
      | Nested tiles -> List.rev tiles
      | Untiled | Permuted _ -> assert false
    in
    (* Iterate blocks of [tile] inside the box [lo, hi), recursing into
       the remaining levels within each block; the innermost blocks are
       handed over row by row. *)
    let rec walk levels lo hi =
      match levels with
      | [] -> box identity lo hi
      | tile :: rest ->
        let block_lo = Array.copy lo and block_hi = Array.copy hi in
        let rec blocks i =
          if i = d then walk rest block_lo block_hi
          else begin
            let v = ref lo.(i) in
            while !v < hi.(i) do
              block_lo.(i) <- !v;
              block_hi.(i) <- min hi.(i) (!v + tile.(i));
              blocks (i + 1);
              v := !v + tile.(i)
            done
          end
        in
        blocks 0
    in
    walk levels origin bounds

let iterate spec sched f =
  iterate_rows spec sched (fun point inner lo hi ->
    for v = lo to hi - 1 do
      point.(inner) <- v;
      f point
    done)

let description spec = function
  | Untiled -> "untiled (lexicographic)"
  | Permuted p ->
    Printf.sprintf "untiled, loop order %s"
      (String.concat "," (Array.to_list (Array.map (fun i -> spec.Spec.loops.(i)) p)))
  | Tiled b ->
    Printf.sprintf "tiled %s over %s"
      (String.concat "x" (Array.to_list (Array.map string_of_int b)))
      (String.concat "x" (Array.to_list (Array.map string_of_int spec.Spec.bounds)))
  | Nested tiles ->
    Printf.sprintf "nested [%s] over %s"
      (String.concat "; "
         (List.map
            (fun b -> String.concat "x" (Array.to_list (Array.map string_of_int b)))
            tiles))
      (String.concat "x" (Array.to_list (Array.map string_of_int spec.Spec.bounds)))

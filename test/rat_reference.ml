(* The Bigint-only rationals that Rat replaced: kept unchanged as the
   oracle of the reference-equivalence properties in test_rat.ml. *)

(* Exact rationals in canonical form: den > 0, gcd(|num|, den) = 1,
   zero represented as 0/1. *)

module B = Bigint

type t = { num : B.t; den : B.t }

let make num den =
  if B.is_zero den then raise Division_by_zero
  else begin
    let num, den = if B.is_negative den then (B.neg num, B.neg den) else (num, den) in
    if B.is_zero num then { num = B.zero; den = B.one }
    else begin
      let g = B.gcd num den in
      if B.is_one g then { num; den } else { num = B.div num g; den = B.div den g }
    end
  end

let of_bigint n = { num = n; den = B.one }
let of_int i = of_bigint (B.of_int i)
let of_ints n d = make (B.of_int n) (B.of_int d)

let zero = of_int 0
let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let half = of_ints 1 2

let num t = t.num
let den t = t.den
let sign t = B.sign t.num
let is_zero t = B.is_zero t.num
let is_integer t = B.is_one t.den
let to_bigint_opt t = if is_integer t then Some t.num else None

let to_float t = B.to_float t.num /. B.to_float t.den

let to_int_exn t =
  match to_bigint_opt t with
  | Some b -> B.to_int b
  | None -> failwith "Rat.to_int_exn: not an integer"

let equal a b = B.equal a.num b.num && B.equal a.den b.den

let compare a b =
  (* Canonical form has positive denominators, so cross-multiplication
     preserves order. *)
  B.compare (B.mul a.num b.den) (B.mul b.num a.den)

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let hash t = Hashtbl.hash (B.hash t.num, B.hash t.den)

let neg t = { t with num = B.neg t.num }
let abs t = { t with num = B.abs t.num }

let inv t =
  if is_zero t then raise Division_by_zero
  else if B.is_negative t.num then { num = B.neg t.den; den = B.neg t.num }
  else { num = t.den; den = t.num }

let add a b =
  if B.equal a.den b.den then make (B.add a.num b.num) a.den
  else make (B.add (B.mul a.num b.den) (B.mul b.num a.den)) (B.mul a.den b.den)

let sub a b = add a (neg b)
let mul a b = make (B.mul a.num b.num) (B.mul a.den b.den)
let div a b = mul a (inv b)
let mul_int a i = make (B.mul a.num (B.of_int i)) a.den

let pow t n =
  if n >= 0 then { num = B.pow t.num n; den = B.pow t.den n }
  else inv { num = B.pow t.num (-n); den = B.pow t.den (-n) }

let floor t = fst (B.ediv_rem t.num t.den)

let ceil t =
  let q, r = B.ediv_rem t.num t.den in
  if B.is_zero r then q else B.succ q

let round_nearest t =
  (* Half away from zero: round(|t|) with the sign reapplied. *)
  let a = abs t in
  let q, r = B.ediv_rem a.num a.den in
  let twice_r = B.mul B.two r in
  let m = if B.compare twice_r a.den >= 0 then B.succ q else q in
  if sign t < 0 then B.neg m else m

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float: not finite"
  else if f = 0.0 then zero
  else begin
    let mantissa, exponent = Float.frexp f in
    (* mantissa * 2^53 is an exact integer for finite floats. *)
    let m = Int64.of_float (Float.ldexp mantissa 53) in
    let e = exponent - 53 in
    let n = of_bigint (B.of_string (Int64.to_string m)) in
    if e >= 0 then mul n (of_bigint (B.shift_left B.one e))
    else div n (of_bigint (B.shift_left B.one (-e)))
  end

let rationalize ?(max_den = 1_000_000) f =
  if not (Float.is_finite f) then invalid_arg "Rat.rationalize: not finite"
  else begin
    (* Stern-Brocot / continued-fraction best approximation with bounded
       denominator. *)
    let negative = f < 0.0 in
    let f = Float.abs f in
    let p0 = ref 0 and q0 = ref 1 and p1 = ref 1 and q1 = ref 0 in
    let x = ref f in
    let stop = ref false in
    while not !stop do
      let a = int_of_float (Float.floor !x) in
      let p2 = (a * !p1) + !p0 and q2 = (a * !q1) + !q0 in
      if q2 > max_den || q2 < 0 then stop := true
      else begin
        p0 := !p1;
        q0 := !q1;
        p1 := p2;
        q1 := q2;
        let frac = !x -. Float.of_int a in
        if frac < 1e-12 then stop := true else x := 1.0 /. frac
      end
    done;
    let r = if !q1 = 0 then zero else of_ints !p1 !q1 in
    if negative then neg r else r
  end

let to_string t =
  if is_integer t then B.to_string t.num
  else B.to_string t.num ^ "/" ^ B.to_string t.den

let of_string_opt s =
  match String.index_opt s '/' with
  | Some i ->
    let n = String.sub s 0 i and d = String.sub s (i + 1) (String.length s - i - 1) in
    (match (B.of_string_opt n, B.of_string_opt d) with
    | Some n, Some d when not (B.is_zero d) -> Some (make n d)
    | _ -> None)
  | None -> (
    match String.index_opt s '.' with
    | None -> Option.map of_bigint (B.of_string_opt s)
    | Some i ->
      let int_part = String.sub s 0 i in
      let frac_part = String.sub s (i + 1) (String.length s - i - 1) in
      let valid_frac =
        String.length frac_part > 0 && String.for_all (fun c -> c >= '0' && c <= '9') frac_part
      in
      if not valid_frac then None
      else begin
        let negative = String.length int_part > 0 && int_part.[0] = '-' in
        let int_str = if int_part = "" || int_part = "-" || int_part = "+" then "0" else int_part in
        match B.of_string_opt int_str with
        | None -> None
        | Some ip ->
          let scale = B.pow (B.of_int 10) (String.length frac_part) in
          let fp = B.of_string frac_part in
          let mag = B.add (B.mul (B.abs ip) scale) fp in
          let signed = if negative || B.is_negative ip then B.neg mag else mag in
          Some (make signed scale)
      end)

let of_string s =
  match of_string_opt s with
  | Some v -> v
  | None -> invalid_arg (Printf.sprintf "Rat.of_string: %S" s)

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( <> ) a b = not (equal a b)
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end

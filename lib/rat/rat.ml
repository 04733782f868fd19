(* Exact rationals in canonical form: den > 0, gcd(|num|, den) = 1,
   zero represented as 0/1.

   A value whose numerator and denominator both fit a native int, and
   neither is [min_int] (so negation never overflows), is held as two
   ints ([Small]); every other value is a pair of Bigints ([Big]). The
   form is a function of the value alone, so structural equality agrees
   with [equal]. Small-form arithmetic is overflow-checked native
   arithmetic with gcd cross-reduction (Knuth, TAOCP 4.5.1); when a step
   overflows, the operation is redone on Bigint and its result demoted
   to the small form if it fits. *)

module B = Bigint

type t =
  | Small of { n : int; d : int }
  | Big of { num : B.t; den : B.t }

(* ------------------------------------------------------------------ *)
(* Native-int helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* The result of a checked operation that overflowed. [min_int] is never
   a small-form part, so it doubles as the sentinel. *)
let ovf = min_int

(* Operands are small-form parts or quotients of them: never [min_int]. *)
let mul_ck a b =
  if abs a lor abs b < 1 lsl 31 then a * b
  else if a = 0 then 0
  else begin
    let p = a * b in
    if p = min_int || p / a <> b then ovf else p
  end

let add_ck a b =
  let s = a + b in
  if (a lxor s) land (b lxor s) < 0 then ovf else s

(* Both arguments non-negative. *)
let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let zero = Small { n = 0; d = 1 }

(* [n/d] with [d > 0] and neither part [min_int]. *)
let reduce n d =
  if n = 0 then zero
  else begin
    let g = gcd_int (abs n) d in
    if g = 1 then Small { n; d } else Small { n = n / g; d = d / g }
  end

(* ------------------------------------------------------------------ *)
(* Bigint form                                                        *)
(* ------------------------------------------------------------------ *)

let small_int b = match B.to_int_opt b with Some i when i <> min_int -> Some i | _ -> None

(* Demotion: [num/den] is already canonical. *)
let of_canonical num den =
  match (small_int num, small_int den) with
  | Some n, Some d -> Small { n; d }
  | _ -> Big { num; den }

let parts = function
  | Small { n; d } -> (B.of_int n, B.of_int d)
  | Big { num; den } -> (num, den)

let make_big num den =
  if B.is_zero den then raise Division_by_zero
  else begin
    let num, den = if B.is_negative den then (B.neg num, B.neg den) else (num, den) in
    if B.is_zero num then zero
    else begin
      let g = B.gcd num den in
      if B.is_one g then of_canonical num den else of_canonical (B.div num g) (B.div den g)
    end
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                       *)
(* ------------------------------------------------------------------ *)

let of_ints n d =
  if n = min_int || d = min_int then make_big (B.of_int n) (B.of_int d)
  else if d = 0 then raise Division_by_zero
  else if d < 0 then reduce (-n) (-d)
  else reduce n d

let make num den =
  match (small_int num, small_int den) with
  | Some n, Some d -> of_ints n d
  | _ -> make_big num den

let of_bigint n = of_canonical n B.one
let of_int i = if i = min_int then of_bigint (B.of_int i) else Small { n = i; d = 1 }

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let half = of_ints 1 2

let num = function Small { n; _ } -> B.of_int n | Big { num; _ } -> num
let den = function Small { d; _ } -> B.of_int d | Big { den; _ } -> den
let sign = function Small { n; _ } -> Int.compare n 0 | Big { num; _ } -> B.sign num
let is_zero = function Small { n; _ } -> n = 0 | Big _ -> false
let is_integer = function Small { d; _ } -> d = 1 | Big { den; _ } -> B.is_one den

let to_bigint_opt t = if is_integer t then Some (num t) else None

(* For |x| < 2^62, Bigint.to_float rounds once (Horner over base-2^30
   digits is exact until the last addition), as float_of_int does. *)
let to_float = function
  | Small { n; d } -> float_of_int n /. float_of_int d
  | Big { num; den } -> B.to_float num /. B.to_float den

let to_int_exn t =
  match to_bigint_opt t with
  | Some b -> B.to_int b
  | None -> failwith "Rat.to_int_exn: not an integer"

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let equal a b =
  match (a, b) with
  | Small x, Small y -> x.n = y.n && x.d = y.d
  | Big x, Big y -> B.equal x.num y.num && B.equal x.den y.den
  | _ -> false

(* Canonical form has positive denominators, so cross-multiplication
   preserves order. *)
let compare_big a b =
  let an, ad = parts a and bn, bd = parts b in
  B.compare (B.mul an bd) (B.mul bn ad)

let compare a b =
  match (a, b) with
  | Small x, Small y ->
    if x.d = y.d then Int.compare x.n y.n
    else begin
      let p = mul_ck x.n y.d and q = mul_ck y.n x.d in
      if p = ovf || q = ovf then compare_big a b else Int.compare p q
    end
  | _ -> compare_big a b

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash t =
  let num, den = parts t in
  Hashtbl.hash (B.hash num, B.hash den)

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                         *)
(* ------------------------------------------------------------------ *)

(* A big-form value has a part of magnitude >= 2^62. [neg], [abs] and
   [inv] keep the magnitudes of the parts, so big stays big. *)
let neg = function
  | Small { n; d } -> Small { n = -n; d }
  | Big { num; den } -> Big { num = B.neg num; den }

let abs = function
  | Small { n; d } -> Small { n = Stdlib.abs n; d }
  | Big { num; den } -> Big { num = B.abs num; den }

let inv = function
  | Small { n = 0; _ } -> raise Division_by_zero
  | Small { n; d } -> if n < 0 then Small { n = -d; d = -n } else Small { n = d; d = n }
  | Big { num; den } ->
    if B.is_negative num then Big { num = B.neg den; den = B.neg num }
    else Big { num = den; den = num }

let add_big a b =
  let an, ad = parts a and bn, bd = parts b in
  if B.equal ad bd then make_big (B.add an bn) ad
  else make_big (B.add (B.mul an bd) (B.mul bn ad)) (B.mul ad bd)

(* u/u' + v/v' with g = gcd(u', v'): t = u(v'/g) + v(u'/g) and
   g2 = gcd(t, g) give the reduced sum (t/g2) / ((u'/g)(v'/g2)). A zero
   sum comes out as 0/1: t = 0 only when u' = v' = g, and then g2 = g. *)
let add a b =
  match (a, b) with
  | Small { n = u; d = u' }, Small { n = v; d = v' } ->
    let g = gcd_int u' v' in
    let p = mul_ck u (v' / g) and q = mul_ck v (u' / g) in
    let t = if p = ovf || q = ovf then ovf else add_ck p q in
    if t = ovf then add_big a b
    else begin
      let g2 = if g = 1 then 1 else gcd_int (Stdlib.abs t) g in
      let d = mul_ck (u' / g) (v' / g2) in
      if d = ovf then add_big a b else Small { n = t / g2; d }
    end
  | _ -> add_big a b

let sub a b = add a (neg b)

let mul_big a b =
  let an, ad = parts a and bn, bd = parts b in
  make_big (B.mul an bn) (B.mul ad bd)

(* (u/u')(v/v') = ((u/g1)(v/g2)) / ((u'/g2)(v'/g1)) with g1 = gcd(u, v')
   and g2 = gcd(v, u'). *)
let mul a b =
  match (a, b) with
  | Small { n = u; d = u' }, Small { n = v; d = v' } ->
    let g1 = gcd_int (Stdlib.abs u) v' and g2 = gcd_int (Stdlib.abs v) u' in
    let n = mul_ck (u / g1) (v / g2) and d = mul_ck (u' / g2) (v' / g1) in
    if n = ovf || d = ovf then mul_big a b else Small { n; d }
  | _ -> mul_big a b

let div a b = mul a (inv b)
let mul_int a i = mul a (of_int i)

let pow t n =
  let num, den = parts t in
  if n >= 0 then of_canonical (B.pow num n) (B.pow den n)
  else inv (of_canonical (B.pow num (-n)) (B.pow den (-n)))

let floor t =
  let num, den = parts t in
  fst (B.ediv_rem num den)

let ceil t =
  let num, den = parts t in
  let q, r = B.ediv_rem num den in
  if B.is_zero r then q else B.succ q

let round_nearest t =
  (* Half away from zero: round(|t|) with the sign reapplied. *)
  let num, den = parts (abs t) in
  let q, r = B.ediv_rem num den in
  let twice_r = B.mul B.two r in
  let m = if B.compare twice_r den >= 0 then B.succ q else q in
  if sign t < 0 then B.neg m else m

let of_float f =
  if not (Float.is_finite f) then invalid_arg "Rat.of_float: not finite"
  else if f = 0.0 then zero
  else begin
    let mantissa, exponent = Float.frexp f in
    (* mantissa * 2^53 is an exact integer below 2^53 in magnitude. *)
    let m = B.of_int (int_of_float (Float.ldexp mantissa 53)) in
    let e = exponent - 53 in
    if e >= 0 then of_bigint (B.shift_left m e) else make m (B.shift_left B.one (-e))
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

let to_string = function
  | Small { n; d } -> if d = 1 then string_of_int n else string_of_int n ^ "/" ^ string_of_int d
  | Big { num; den } ->
    if B.is_one den then B.to_string num else B.to_string num ^ "/" ^ B.to_string den

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

(* Unit and property tests for exact rationals. *)

module B = Bigint

let rat = Alcotest.testable Rat.pp Rat.equal
let check_r = Alcotest.check rat
let r = Rat.of_int
let rr = Rat.of_ints

let test_normalization () =
  check_r "6/4 = 3/2" (rr 3 2) (rr 6 4);
  check_r "-6/4 = -3/2" (rr (-3) 2) (rr (-6) 4);
  check_r "6/-4 = -3/2" (rr (-3) 2) (rr 6 (-4));
  check_r "-6/-4 = 3/2" (rr 3 2) (rr (-6) (-4));
  check_r "0/7 = 0" Rat.zero (rr 0 7);
  Alcotest.(check string) "den positive" "1" (B.to_string (Rat.den (rr 0 (-5))));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () -> ignore (rr 1 0))

let test_arith () =
  check_r "1/2 + 1/3" (rr 5 6) (Rat.add Rat.half (rr 1 3));
  check_r "1/2 - 1/3" (rr 1 6) (Rat.sub Rat.half (rr 1 3));
  check_r "2/3 * 3/4" Rat.half (Rat.mul (rr 2 3) (rr 3 4));
  check_r "(1/2) / (1/4)" Rat.two (Rat.div Rat.half (rr 1 4));
  check_r "mul_int" (rr 3 2) (Rat.mul_int Rat.half 3);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
    ignore (Rat.div Rat.one Rat.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Rat.inv Rat.zero))

let test_pow () =
  check_r "pow 2 10" (r 1024) (Rat.pow Rat.two 10);
  check_r "pow 1/2 -2" (r 4) (Rat.pow Rat.half (-2));
  check_r "pow x 0" Rat.one (Rat.pow (rr 17 3) 0);
  check_r "pow neg base" (rr 9 4) (Rat.pow (rr (-3) 2) 2)

let test_floor_ceil_round () =
  let cases =
    [
      (rr 7 2, 3, 4, 4);
      (rr (-7) 2, -4, -3, -4);
      (r 5, 5, 5, 5);
      (rr 1 3, 0, 1, 0);
      (rr (-1) 3, -1, 0, 0);
      (rr 5 4, 1, 2, 1);
    ]
  in
  List.iter
    (fun (x, f, c, n) ->
      Alcotest.(check int) ("floor " ^ Rat.to_string x) f (B.to_int (Rat.floor x));
      Alcotest.(check int) ("ceil " ^ Rat.to_string x) c (B.to_int (Rat.ceil x));
      Alcotest.(check int) ("round " ^ Rat.to_string x) n (B.to_int (Rat.round_nearest x)))
    cases

let test_of_float () =
  check_r "0.5" Rat.half (Rat.of_float 0.5);
  check_r "0.25" (rr 1 4) (Rat.of_float 0.25);
  check_r "-1.75" (rr (-7) 4) (Rat.of_float (-1.75));
  check_r "0.0" Rat.zero (Rat.of_float 0.0);
  check_r "3.0" (r 3) (Rat.of_float 3.0);
  Alcotest.check_raises "nan" (Invalid_argument "Rat.of_float: not finite") (fun () ->
    ignore (Rat.of_float Float.nan));
  Alcotest.check_raises "inf" (Invalid_argument "Rat.of_float: not finite") (fun () ->
    ignore (Rat.of_float Float.infinity))

let test_rationalize () =
  check_r "1/3" (rr 1 3) (Rat.rationalize (1.0 /. 3.0));
  check_r "2/7" (rr 2 7) (Rat.rationalize (2.0 /. 7.0));
  check_r "exact int" (r 8) (Rat.rationalize 8.0);
  check_r "negative" (rr (-3) 4) (Rat.rationalize (-0.75));
  check_r "zero" Rat.zero (Rat.rationalize 0.0);
  (* max_den honored *)
  let x = Rat.rationalize ~max_den:10 Float.pi in
  Alcotest.(check bool) "den <= 10" true (B.compare (Rat.den x) (B.of_int 10) <= 0);
  check_r "pi ~ 22/7" (rr 22 7) x

let test_of_string () =
  check_r "p/q" (rr 3 4) (Rat.of_string "3/4");
  check_r "neg p/q" (rr (-3) 4) (Rat.of_string "-3/4");
  check_r "int" (r 17) (Rat.of_string "17");
  check_r "decimal" (rr 13 4) (Rat.of_string "3.25");
  check_r "neg decimal" (rr (-13) 4) (Rat.of_string "-3.25");
  check_r "leading dot" (rr 1 2) (Rat.of_string "0.5");
  List.iter
    (fun s -> Alcotest.(check bool) ("reject " ^ s) true (Rat.of_string_opt s = None))
    [ ""; "1/0"; "1/"; "/2"; "1.2.3"; "abc"; "1."; "3.x" ]

let test_to_string () =
  Alcotest.(check string) "int form" "5" (Rat.to_string (r 5));
  Alcotest.(check string) "frac form" "-3/4" (Rat.to_string (rr (-3) 4))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Rat.compare (rr 1 3) Rat.half < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Rat.compare (rr (-1) 2) (rr 1 3) < 0);
  check_r "min" (rr 1 3) (Rat.min (rr 1 3) Rat.half);
  check_r "max" Rat.half (Rat.max (rr 1 3) Rat.half)

let test_predicates () =
  Alcotest.(check bool) "is_integer 4/2" true (Rat.is_integer (rr 4 2));
  Alcotest.(check bool) "is_integer 1/2" false (Rat.is_integer Rat.half);
  Alcotest.(check int) "to_int_exn" 2 (Rat.to_int_exn (rr 4 2));
  Alcotest.check_raises "to_int_exn non-integer" (Failure "Rat.to_int_exn: not an integer")
    (fun () -> ignore (Rat.to_int_exn Rat.half))

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let gen_rat =
  QCheck.Gen.(
    map2
      (fun n d -> Rat.of_ints n (if d = 0 then 1 else d))
      (int_range (-10000) 10000) (int_range (-100) 100))

let arb_rat = QCheck.make ~print:Rat.to_string gen_rat

let arb_nonzero =
  QCheck.make ~print:Rat.to_string
    (QCheck.Gen.map (fun x -> if Rat.is_zero x then Rat.one else x) gen_rat)

let prop name ?(count = 500) arb f = QCheck.Test.make ~name ~count arb f

let props =
  [
    prop "add commutative" (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      Rat.equal (Rat.add a b) (Rat.add b a));
    prop "add associative" (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c)));
    prop "mul distributes" (QCheck.triple arb_rat arb_rat arb_rat) (fun (a, b, c) ->
      Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c)));
    prop "additive inverse" arb_rat (fun a -> Rat.is_zero (Rat.add a (Rat.neg a)));
    prop "multiplicative inverse" arb_nonzero (fun a ->
      Rat.equal (Rat.mul a (Rat.inv a)) Rat.one);
    prop "canonical form" arb_rat (fun a ->
      B.sign (Rat.den a) > 0 && B.equal (B.gcd (Rat.num a) (Rat.den a)) (B.gcd (Rat.den a) (Rat.num a))
      && (Rat.is_zero a || B.is_one (B.gcd (B.abs (Rat.num a)) (Rat.den a))));
    prop "compare antisymmetric" (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      Rat.compare a b = -Rat.compare b a);
    prop "compare matches sub sign" (QCheck.pair arb_rat arb_rat) (fun (a, b) ->
      Rat.compare a b = Rat.sign (Rat.sub a b));
    prop "floor <= x < floor+1" arb_rat (fun a ->
      let f = Rat.of_bigint (Rat.floor a) in
      Rat.compare f a <= 0 && Rat.compare a (Rat.add f Rat.one) < 0);
    prop "ceil - floor in {0,1}" arb_rat (fun a ->
      let d = B.sub (Rat.ceil a) (Rat.floor a) in
      B.is_zero d || B.is_one d);
    prop "round within half" arb_rat (fun a ->
      let n = Rat.of_bigint (Rat.round_nearest a) in
      Rat.compare (Rat.abs (Rat.sub n a)) Rat.half <= 0);
    prop "of_float exact roundtrip" QCheck.(float_range (-1e6) 1e6) (fun f ->
      Rat.to_float (Rat.of_float f) = f);
    prop "string roundtrip" arb_rat (fun a -> Rat.equal (Rat.of_string (Rat.to_string a)) a);
    prop "to_float close" arb_rat (fun a ->
      Float.abs (Rat.to_float a -. (Rat.to_float a)) < 1e-12);
    prop "rationalize recovers small fractions"
      QCheck.(pair (int_range (-999) 999) (int_range 1 999))
      (fun (n, d) ->
        Rat.equal (Rat.rationalize (float_of_int n /. float_of_int d)) (Rat.of_ints n d));
    prop "pow additive in exponent" (QCheck.pair arb_nonzero (QCheck.int_range (-6) 6))
      (fun (a, n) ->
        Rat.equal (Rat.mul (Rat.pow a n) (Rat.pow a 1)) (Rat.pow a (n + 1)));
  ]

(* ------------------------------------------------------------------ *)
(* Reference equivalence: every operation agrees with the Bigint-only  *)
(* implementation on values at and across the native-int boundary     *)
(* ------------------------------------------------------------------ *)

module R = Rat_reference

let pow2 k = 1 lsl k

let gen_int =
  QCheck.Gen.(
    let signed g = map2 (fun s v -> if s then -v else v) bool g in
    frequency
      [
        (3, int_range (-100) 100);
        (2, oneofl [ 0; 1; -1; 2; -2; max_int; -max_int; min_int; pow2 30; pow2 31; pow2 61 ]);
        (2, signed (map (fun k -> pow2 31 + k) (int_range (-3) 3)));
        (2, signed (map (fun k -> max_int - k) (int_range 0 3)));
        (1, signed (map (fun k -> pow2 61 + k) (int_range (-3) 3)));
        (2, int);
      ])

(* Integers that need several Bigint digits, and ones just past an int. *)
let gen_bigint =
  QCheck.Gen.(
    frequency
      [
        (6, map B.of_int gen_int);
        (1, map2 (fun a b -> B.mul (B.of_int a) (B.of_int b)) gen_int gen_int);
        (1, map2 (fun a k -> B.shift_left (B.of_int a) k) gen_int (int_range 0 100));
        (1, map2 (fun s k -> B.add (B.shift_left B.one 62) (B.of_int (if s then k else -k))) bool
              (int_range 0 3));
      ])

let gen_pair = QCheck.Gen.(pair gen_bigint (map (fun d -> if B.is_zero d then B.one else d) gen_bigint))

let arb_pair =
  QCheck.make ~print:(fun (n, d) -> B.to_string n ^ "/" ^ B.to_string d) gen_pair

let both (n, d) = (Rat.make n d, R.make n d)

(* Same value and same rendering, with the parts compared as Bigints. *)
let agree x y =
  Rat.to_string x = R.to_string y && B.equal (Rat.num x) (R.num y) && B.equal (Rat.den x) (R.den y)

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let agree_or_raise f g =
  match (outcome f, outcome g) with
  | Ok x, Ok y -> agree x y
  | Error a, Error b -> a = b
  | _ -> false

let bits f = Int64.bits_of_float f

let ref_props =
  let unary name f g =
    prop ("ref " ^ name) ~count:1000 arb_pair (fun p ->
      let x, y = both p in
      agree_or_raise (fun () -> f x) (fun () -> g y))
  in
  let binary name f g =
    prop ("ref " ^ name) ~count:1000 (QCheck.pair arb_pair arb_pair) (fun (p, q) ->
      let x, y = both p and x', y' = both q in
      agree_or_raise (fun () -> f x x') (fun () -> g y y'))
  in
  [
    unary "make" Fun.id Fun.id;
    prop "ref of_ints" ~count:1000 (QCheck.make QCheck.Gen.(pair gen_int gen_int)) (fun (n, d) ->
      agree_or_raise (fun () -> Rat.of_ints n d) (fun () -> R.of_ints n d));
    prop "ref of_int / of_bigint" ~count:1000 (QCheck.make gen_bigint) (fun b ->
      agree (Rat.of_bigint b) (R.of_bigint b)
      && match B.to_int_opt b with Some i -> agree (Rat.of_int i) (R.of_int i) | None -> true);
    binary "add" Rat.add R.add;
    binary "sub" Rat.sub R.sub;
    binary "mul" Rat.mul R.mul;
    binary "div" Rat.div R.div;
    binary "min" Rat.min R.min;
    binary "max" Rat.max R.max;
    unary "inv" Rat.inv R.inv;
    unary "neg" Rat.neg R.neg;
    unary "abs" Rat.abs R.abs;
    prop "ref mul_int" ~count:1000 (QCheck.pair arb_pair (QCheck.make gen_int)) (fun (p, i) ->
      let x, y = both p in
      agree (Rat.mul_int x i) (R.mul_int y i));
    prop "ref pow" ~count:500 (QCheck.pair arb_pair (QCheck.int_range (-4) 4)) (fun (p, k) ->
      let x, y = both p in
      agree_or_raise (fun () -> Rat.pow x k) (fun () -> R.pow y k));
    prop "ref compare / equal / sign" ~count:1000 (QCheck.pair arb_pair arb_pair) (fun (p, q) ->
      let x, y = both p and x', y' = both q in
      Rat.compare x x' = R.compare y y'
      && Rat.compare x x = 0
      && Rat.equal x x' = R.equal y y'
      && Rat.sign x = R.sign y);
    prop "ref floor / ceil / round_nearest" ~count:1000 arb_pair (fun p ->
      let x, y = both p in
      B.equal (Rat.floor x) (R.floor y)
      && B.equal (Rat.ceil x) (R.ceil y)
      && B.equal (Rat.round_nearest x) (R.round_nearest y));
    prop "ref is_integer / to_bigint_opt / to_int_exn" ~count:1000 arb_pair (fun p ->
      let x, y = both p in
      Rat.is_integer x = R.is_integer y
      && Option.equal B.equal (Rat.to_bigint_opt x) (R.to_bigint_opt y)
      && outcome (fun () -> Rat.to_int_exn x) = outcome (fun () -> R.to_int_exn y));
    prop "ref to_float bit-equal" ~count:1000 arb_pair (fun p ->
      let x, y = both p in
      Int64.equal (bits (Rat.to_float x)) (bits (R.to_float y)));
    prop "ref to_string / hash" ~count:1000 arb_pair (fun p ->
      let x, y = both p in
      Rat.to_string x = R.to_string y && Rat.hash x = R.hash y);
    prop "ref of_string" ~count:1000
      (QCheck.make
         QCheck.Gen.(
           oneof
             [
               map (fun p -> R.to_string (R.make (fst p) (snd p))) gen_pair;
               map2 (fun i f -> Printf.sprintf "%d.%d" i (Stdlib.abs f)) gen_int gen_int;
               map2 (fun i k -> Printf.sprintf "-%d.%0*d" (Stdlib.abs i) k 7) gen_int (int_range 1 30);
               oneofl [ ""; "1/0"; "-0.5"; ".25"; "-.25"; "+3"; "1.x"; "0/5"; "-0/-3" ];
             ]))
      (fun s ->
        match (Rat.of_string_opt s, R.of_string_opt s) with
        | Some x, Some y -> agree x y
        | None, None -> true
        | _ -> false);
    prop "ref of_float" ~count:1000 QCheck.float (fun f ->
      agree_or_raise (fun () -> Rat.of_float f) (fun () -> R.of_float f));
    prop "ref rationalize" ~count:1000
      (QCheck.pair (QCheck.float_range (-1e6) 1e6) (QCheck.int_range 1 1_000_000))
      (fun (f, max_den) -> agree (Rat.rationalize ~max_den f) (R.rationalize ~max_den f));
    (* Canonical form: structural equality and Rat.equal coincide, also
       for equal values reached by different paths. *)
    prop "(=) iff Rat.equal" ~count:1000 (QCheck.triple arb_pair arb_pair arb_pair)
      (fun (p, q, r) ->
        let x = fst (both p) and y = fst (both q) and z = fst (both r) in
        let via = Rat.add (Rat.sub x z) z in
        let w = Rat.add z Rat.one in
        let ok a b = (a = b) = Rat.equal a b in
        ok x y && ok x via && Rat.equal x via
        && (Rat.is_zero w || ok x (Rat.div (Rat.mul x w) w)));
  ]

let () =
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "floor/ceil/round" `Quick test_floor_ceil_round;
          Alcotest.test_case "of_float" `Quick test_of_float;
          Alcotest.test_case "rationalize" `Quick test_rationalize;
          Alcotest.test_case "of_string" `Quick test_of_string;
          Alcotest.test_case "to_string" `Quick test_to_string;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "predicates" `Quick test_predicates;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest props);
      ("reference", List.map QCheck_alcotest.to_alcotest ref_props);
    ]

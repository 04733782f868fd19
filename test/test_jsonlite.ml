(* Tests for the dependency-free JSON parser backing bench/compare and
   the trace-validity tests. *)

open Jsonlite

let rec pp_json fmt = function
  | Null -> Format.fprintf fmt "null"
  | Bool b -> Format.fprintf fmt "%b" b
  | Num n -> Format.fprintf fmt "%.17g" n
  | Str s -> Format.fprintf fmt "%S" s
  | Arr l -> Format.fprintf fmt "[%a]" (Format.pp_print_list pp_json) l
  | Obj kvs ->
    Format.fprintf fmt "{%a}"
      (Format.pp_print_list (fun fmt (k, v) -> Format.fprintf fmt "%S:%a" k pp_json v))
      kvs

let json = Alcotest.testable pp_json ( = )

let ok s = match parse s with Ok v -> v | Error e -> Alcotest.failf "parse %S: %s" s e
let bad name s =
  match parse s with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: %S should not parse" name s

let test_scalars () =
  Alcotest.check json "null" Null (ok "null");
  Alcotest.check json "true" (Bool true) (ok "true");
  Alcotest.check json "false" (Bool false) (ok " false ");
  Alcotest.check json "int" (Num 42.0) (ok "42");
  Alcotest.check json "negative" (Num (-17.0)) (ok "-17");
  Alcotest.check json "float" (Num 3.25) (ok "3.25");
  Alcotest.check json "exponent" (Num 1.5e3) (ok "1.5e3");
  Alcotest.check json "neg exponent" (Num 2.5e-3) (ok "25E-4");
  Alcotest.check json "string" (Str "hi") (ok "\"hi\"")

let test_escapes () =
  Alcotest.check json "quote/backslash" (Str "a\"b\\c") (ok {|"a\"b\\c"|});
  Alcotest.check json "controls" (Str "\n\t\r\b\012/") (ok {|"\n\t\r\b\f\/"|});
  Alcotest.check json "unicode ascii" (Str "A") (ok {|"A"|});
  Alcotest.check json "unicode 2-byte" (Str "\xc3\xa9") (ok {|"é"|});
  Alcotest.check json "unicode 3-byte" (Str "\xe2\x82\xac") (ok {|"€"|});
  (* The one writer's wire bytes, pinned, and their round trip. *)
  let raw = "q\"b\\n\nt\tc\001d\127u\xc3\xa9" in
  Alcotest.(check string) "quote wire bytes" "\"q\\\"b\\\\n\\nt\\tc\\u0001d\127u\xc3\xa9\""
    (Jsonlite.quote raw);
  Alcotest.check json "quote round trip" (Str raw) (ok (Jsonlite.quote raw))

let test_containers () =
  Alcotest.check json "empty array" (Arr []) (ok "[]");
  Alcotest.check json "empty object" (Obj []) (ok "{}");
  Alcotest.check json "nested"
    (Obj [ ("a", Arr [ Num 1.0; Obj [ ("b", Null) ] ]); ("c", Str "x") ])
    (ok {|{"a": [1, {"b": null}], "c": "x"}|})

let test_rejects () =
  bad "empty" "";
  bad "trailing garbage" "42 x";
  bad "trailing comma array" "[1,]";
  bad "trailing comma object" {|{"a":1,}|};
  bad "unterminated string" "\"abc";
  bad "unterminated array" "[1, 2";
  bad "bare word" "nope";
  bad "single quotes" "{'a': 1}";
  bad "unquoted key" "{a: 1}";
  bad "lone minus" "-";
  bad "two documents" "{} {}"

let test_depth_cap () =
  (* nesting is capped, so hostile input is an error, not a stack
     overflow; documents at the cap still parse *)
  let nest n = String.make n '[' ^ String.make n ']' in
  (match parse (String.make 100_000 '[') with
  | Error msg ->
    Alcotest.(check bool) ("names the cap: " ^ msg) true
      (Astring.String.is_infix ~affix:"deeper than 512" msg)
  | Ok _ -> Alcotest.fail "100,000-deep input parsed");
  (match parse (String.concat "" (List.init 600 (fun _ -> {|{"a":|}))) with
  | Error msg ->
    Alcotest.(check bool) "objects count too" true
      (Astring.String.is_infix ~affix:"deeper than 512" msg)
  | Ok _ -> Alcotest.fail "600-deep objects parsed");
  Alcotest.(check bool) "512 deep parses" true (Result.is_ok (parse (nest 512)));
  Alcotest.(check bool) "513 deep rejected" true (Result.is_error (parse (nest 513)))

let test_accessors () =
  let v = ok {|{"n": 2.5, "s": "str", "l": [1, 2], "o": {"k": 1}}|} in
  Alcotest.(check (option (float 0.0))) "num_member" (Some 2.5) (num_member "n" v);
  Alcotest.(check (option string)) "str_member" (Some "str") (str_member "s" v);
  Alcotest.(check (option int)) "list_member"
    (Some 2)
    (Option.map List.length (list_member "l" v));
  Alcotest.(check bool) "member object" true (member "o" v <> None);
  Alcotest.(check (option (float 0.0))) "missing" None (num_member "zz" v);
  Alcotest.(check (option (float 0.0))) "shape mismatch" None (num_member "s" v);
  Alcotest.(check bool) "to_obj" true (to_obj v <> None);
  Alcotest.(check (option (float 0.0))) "to_num on string" None (to_num (Str "x"))

let test_roundtrips_own_writers () =
  (* the parser must read everything the repo's writers emit *)
  Obs.reset ();
  Obs.incr ~by:3 (Obs.counter "j.count \"quoted\"");
  Obs.add_seconds (Obs.timer "j.timer") 0.25;
  (match parse (Obs.to_json (Obs.snapshot ())) with
  | Error e -> Alcotest.failf "Obs.to_json: %s" e
  | Ok v ->
    Alcotest.(check (option (float 0.0))) "escaped counter name survives" (Some 3.0)
      (Option.bind (member "counters" v) (num_member "j.count \"quoted\"")));
  Obs.reset ();
  Obs.Trace.enable ();
  Obs.Trace.with_span "j.span" (fun () -> ());
  Obs.Trace.disable ();
  match parse (Obs.Trace.export_json ()) with
  | Error e -> Alcotest.failf "Trace.export_json: %s" e
  | Ok v -> Alcotest.(check bool) "trace parses" true (list_member "traceEvents" v <> None)

let () =
  Alcotest.run "jsonlite"
    [
      ( "parse",
        [
          Alcotest.test_case "scalars" `Quick test_scalars;
          Alcotest.test_case "escapes" `Quick test_escapes;
          Alcotest.test_case "containers" `Quick test_containers;
          Alcotest.test_case "rejects malformed input" `Quick test_rejects;
          Alcotest.test_case "depth cap" `Quick test_depth_cap;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "roundtrips this repo's writers" `Quick
            test_roundtrips_own_writers;
        ] );
    ]

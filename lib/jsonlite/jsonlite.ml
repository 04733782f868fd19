type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))
let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.src
    && match st.src.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | _ -> error st (Printf.sprintf "expected '%c'" c)

let parse_literal st word value =
  if
    st.pos + String.length word <= String.length st.src
    && String.sub st.src st.pos (String.length word) = word
  then begin
    st.pos <- st.pos + String.length word;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Encode a Unicode scalar value as UTF-8. *)
let add_utf8 buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    if st.pos >= String.length st.src then error st "unterminated string";
    let c = st.src.[st.pos] in
    st.pos <- st.pos + 1;
    if c = '"' then Buffer.contents buf
    else if c = '\\' then begin
      (if st.pos >= String.length st.src then error st "unterminated escape";
       let e = st.src.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'n' -> Buffer.add_char buf '\n'
       | 'r' -> Buffer.add_char buf '\r'
       | 't' -> Buffer.add_char buf '\t'
       | 'u' ->
         if st.pos + 4 > String.length st.src then error st "short \\u escape";
         let v = ref 0 in
         for i = 0 to 3 do
           let d = hex_digit st.src.[st.pos + i] in
           if d < 0 then error st "bad \\u escape";
           v := (!v * 16) + d
         done;
         st.pos <- st.pos + 4;
         add_utf8 buf !v
       | _ -> error st "bad escape");
      loop ()
    end
    else begin
      Buffer.add_char buf c;
      loop ()
    end
  in
  loop ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while st.pos < String.length st.src && is_num_char st.src.[st.pos] do
    st.pos <- st.pos + 1
  done;
  if st.pos = start then error st "expected number";
  match float_of_string_opt (String.sub st.src start (st.pos - start)) with
  | Some f -> Num f
  | None -> error st "malformed number"

(* Containers nest by recursion, so hostile input could overflow the
   stack; nothing this repo writes comes close to the cap. *)
let max_depth = 512

let open_container st depth =
  if depth >= max_depth then error st (Printf.sprintf "nesting deeper than %d levels" max_depth);
  st.pos <- st.pos + 1

let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | Some '{' ->
    open_container st depth;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ((key, v) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          Obj (List.rev ((key, v) :: acc))
        | _ -> error st "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    open_container st depth;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec elements acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elements (v :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          Arr (List.rev (v :: acc))
        | _ -> error st "expected ',' or ']'"
      in
      elements []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> parse_number st
  | None -> error st "unexpected end of input"

let parse_exn s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st 0 in
  skip_ws st;
  if st.pos <> String.length s then error st "trailing garbage";
  v

let parse s = try Ok (parse_exn s) with Parse_error msg -> Error msg

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | contents -> parse contents
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let quote s =
  let buf = Buffer.create (String.length s + 8) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let to_list = function Arr l -> Some l | _ -> None
let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_obj = function Obj kvs -> Some kvs | _ -> None

let num_member key j = Option.bind (member key j) to_num
let str_member key j = Option.bind (member key j) to_str
let list_member key j = Option.bind (member key j) to_list

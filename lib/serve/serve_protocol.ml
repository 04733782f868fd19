(* ------------------------------------------------------------------ *)
(* JSON writing (mirrors Report's conventions)                        *)
(* ------------------------------------------------------------------ *)

let jstr = Jsonlite.quote
let jid = function None -> "null" | Some s -> jstr s

(* Structured, non-fatal decode diagnostics. A v1 client that omits an
   envelope field the v2 schema made explicit still gets its answer —
   plus one of these in the response so operators can find laggards
   before v1 is retired. *)
type warning = { w_code : string; w_field : string; w_message : string }

let deprecated_field ~field ~message =
  { w_code = "deprecated_field"; w_field = field; w_message = message }

let warnings_json = function
  | [] -> ""
  | ws ->
    let one w =
      Printf.sprintf "{\"code\":%s,\"field\":%s,\"message\":%s}" (jstr w.w_code)
        (jstr w.w_field) (jstr w.w_message)
    in
    Printf.sprintf ",\"warnings\":[%s]" (String.concat "," (List.map one ws))

(* Every response envelope echoes the request's wire version, so a v1
   client keeps reading {"v":1,...} lines while a v2 client on the same
   daemon reads {"v":2,...}; [warnings], when present, sits between
   "ok" and the payload. *)

let ok_response ?(warnings = []) ~v ~id ~report_json () =
  Printf.sprintf "{\"v\":%d,\"id\":%s,\"ok\":true%s,\"report\":%s}" v (jid id)
    (warnings_json warnings) report_json

let sweep_response ?(warnings = []) ~v ~id ~report_jsons () =
  Printf.sprintf "{\"v\":%d,\"id\":%s,\"ok\":true%s,\"reports\":[%s]}" v (jid id)
    (warnings_json warnings)
    (String.concat "," report_jsons)

let plan_response ?(warnings = []) ~v ~id ~plan_json () =
  Printf.sprintf "{\"v\":%d,\"id\":%s,\"ok\":true%s,\"plan\":%s}" v (jid id)
    (warnings_json warnings) plan_json

let partition_response ?(warnings = []) ~v ~id ~partition_json () =
  Printf.sprintf "{\"v\":%d,\"id\":%s,\"ok\":true%s,\"partition\":%s}" v (jid id)
    (warnings_json warnings) partition_json

let error_response ~v ~id err =
  let position =
    match err with
    | Engine_error.Parse_error { line; col; _ } when line > 0 ->
      Printf.sprintf ",\"line\":%d,\"col\":%d" line col
    | _ -> ""
  in
  Printf.sprintf "{\"v\":%d,\"id\":%s,\"ok\":false,\"error\":{\"code\":%s,\"message\":%s%s}}"
    v (jid id)
    (jstr (Engine_error.code err))
    (jstr (Engine_error.to_string err))
    position

(* ------------------------------------------------------------------ *)
(* Shared decoding helpers (used by Request.decode)                   *)
(* ------------------------------------------------------------------ *)

exception Reject of Engine_error.t

let reject fmt = Printf.ksprintf (fun s -> raise (Reject (Engine_error.Invalid_request s))) fmt

(* A list of strings out of an optional array-of-strings field. *)
let string_list json field ~default =
  match Jsonlite.member field json with
  | None | Some Jsonlite.Null -> default
  | Some (Jsonlite.Arr items) ->
    List.map
      (fun v ->
        match Jsonlite.to_str v with
        | Some s -> s
        | None -> reject "%S must be an array of strings" field)
      items
  | Some _ -> reject "%S must be an array of strings" field

let bool_field json field ~default =
  match Jsonlite.member field json with
  | None | Some Jsonlite.Null -> default
  | Some (Jsonlite.Bool b) -> b
  | Some _ -> reject "%S must be a boolean" field

let int_field json field =
  match Jsonlite.num_member field json with
  | Some v when Float.is_integer v && Float.abs v < 1e15 -> Some (int_of_float v)
  | Some _ -> reject "%S must be an integer" field
  | None -> (
    match Jsonlite.member field json with
    | None | Some Jsonlite.Null -> None
    | Some _ -> reject "%S must be an integer" field)

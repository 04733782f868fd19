(* The typed request union of the serve protocol, with the one versioned
   decoder every transport funnels through. Replaces the old pattern of
   op-specific ad-hoc decoding: serve.ml dispatches on [body], never on
   a raw "op" string. *)

type body =
  | Analyze of {
      m : int;
      sims : Pipeline.sim_request list;
      shared : bool;
      timings : bool;
    }
  | Sweep of {
      ms : int list;
      sims : Pipeline.sim_request list;
      shared : bool;
      timings : bool;
    }
  | Compile
  | Partition of { procs : int; m_local : int; net : Partition_solve.network }

type t = {
  id : string option;
  v : int;
  spec : Spec.t;
  body : body;
  deadline_s : float option;
  warnings : Serve_protocol.warning list;
}

type decode_error = { err_id : string option; err_v : int; err : Engine_error.t }

let supported_version = function 1 | 2 -> true | _ -> false

let op_name = function
  | Analyze _ -> "analyze"
  | Sweep _ -> "sweep"
  | Compile -> "compile"
  | Partition _ -> "partition"

open Serve_protocol

(* A rational out of a JSON number (exact dyadic value of the IEEE
   float) or string ("3", "1/4", "2.5"). *)
let rat_field json field =
  match Jsonlite.member field json with
  | None | Some Jsonlite.Null -> None
  | Some (Jsonlite.Num f) when Float.is_finite f -> Some (Rat.of_float f)
  | Some (Jsonlite.Str s) -> (
    match Rat.of_string_opt s with
    | Some r -> Some r
    | None ->
      raise
        (Reject
           (Engine_error.Network_model_invalid
              (Printf.sprintf "%S is not a rational (%S)" field s))))
  | Some _ ->
    raise
      (Reject
         (Engine_error.Network_model_invalid
            (Printf.sprintf "%S must be a number or a rational string" field)))

let decode_net json =
  match Jsonlite.member "net" json with
  | None | Some Jsonlite.Null -> Partition_solve.Words
  | Some (Jsonlite.Str "words") -> Partition_solve.Words
  | Some (Jsonlite.Str other) ->
    raise
      (Reject
         (Engine_error.Network_model_invalid
            (Printf.sprintf "unknown network model %S (words, or {\"alpha\",\"beta\"})"
               other)))
  | Some (Jsonlite.Obj _ as o) ->
    let alpha = Option.value ~default:Rat.zero (rat_field o "alpha") in
    let beta = Option.value ~default:Rat.one (rat_field o "beta") in
    Partition_solve.Alpha_beta { alpha; beta }
  | Some _ ->
    raise
      (Reject
         (Engine_error.Network_model_invalid
            "\"net\" must be \"words\" or an {\"alpha\",\"beta\"} object"))

(* A list field of wire names, each looked up in its table. *)
let named_list json field table ~what ~default =
  List.map
    (fun s ->
      match List.assoc_opt s table with
      | Some x -> x
      | None -> reject "unknown %s %S (%s)" what s (String.concat ", " (List.map fst table)))
    (string_list json field ~default)

let sims ~schedules ~policies =
  List.concat_map
    (fun sched -> List.map (fun policy -> Pipeline.sim ~policy sched) policies)
    schedules

let decode_sims json =
  let schedules =
    named_list json "schedules" Pipeline.schedule_names ~what:"schedule" ~default:[]
  in
  let policies = named_list json "policies" Policy.names ~what:"policy" ~default:[ "lru" ] in
  sims ~schedules ~policies

let spec_of_kernel text =
  if String.contains text ':' then
    match Parser.parse text with
    | Ok s -> Ok s
    | Error e ->
      Error
        (Engine_error.Parse_error
           {
             line = e.Parser.pos.Parser.line;
             col = e.Parser.pos.Parser.col;
             message = e.Parser.message;
           })
  else Result.map_error (fun msg -> Engine_error.Invalid_spec msg) (Kernels.lookup text)

let decode line =
  match Jsonlite.parse line with
  | Error msg ->
    Error
      { err_id = None; err_v = 1; err = Parse_error { line = 0; col = 0; message = msg } }
  | Ok json -> (
    let err_id = Jsonlite.str_member "id" json in
    let v = ref 1 in
    try
      (match json with Jsonlite.Obj _ -> () | _ -> reject "request must be a JSON object");
      (match int_field json "v" with
      | None -> ()
      | Some n when supported_version n -> v := n
      | Some n -> reject "unsupported schema version %d (this server speaks v1 and v2)" n);
      let v = !v in
      let id =
        match Jsonlite.member "id" json with
        | None | Some Jsonlite.Null -> None
        | Some (Jsonlite.Str s) -> Some s
        | Some _ -> reject "\"id\" must be a string"
      in
      let spec =
        match Jsonlite.str_member "kernel" json with
        | None -> reject "\"kernel\" is required (preset name or DSL)"
        | Some text -> (
          match spec_of_kernel text with Ok s -> s | Error e -> raise (Reject e))
      in
      (* v1 compatibility: a missing "op" means "analyze" (the only
         request kind v1 originally had) and earns a structured
         deprecated_field warning; v2 made the op explicit. *)
      let warnings = ref [] in
      let op =
        match Jsonlite.str_member "op" json with
        | Some op -> op
        | None ->
          if v >= 2 then
            reject "\"op\" is required in v2 (analyze, sweep, compile, partition)"
          else begin
            warnings :=
              [
                deprecated_field ~field:"op"
                  ~message:
                    "requests without \"op\" default to \"analyze\"; v2 requires an \
                     explicit \"op\"";
              ];
            "analyze"
          end
      in
      let body =
        match op with
        | "analyze" ->
          let m =
            match int_field json "m" with
            | Some m -> m
            | None -> reject "\"m\" (fast-memory words) is required"
          in
          Analyze
            {
              m;
              sims = decode_sims json;
              shared = bool_field json "shared" ~default:true;
              timings = bool_field json "timings" ~default:false;
            }
        | "sweep" ->
          let ms =
            match Jsonlite.list_member "ms" json with
            | None ->
              reject "\"ms\" (an array of fast-memory sizes) is required for op:\"sweep\""
            | Some items ->
              List.map
                (fun item ->
                  match Jsonlite.to_num item with
                  | Some f when Float.is_integer f && Float.abs f < 1e15 ->
                    int_of_float f
                  | _ -> reject "\"ms\" must be an array of integers")
                items
          in
          if ms = [] then reject "\"ms\" must not be empty";
          Sweep
            {
              ms;
              sims = decode_sims json;
              shared = bool_field json "shared" ~default:true;
              timings = bool_field json "timings" ~default:false;
            }
        | "compile" -> Compile
        | "partition" ->
          let procs =
            match int_field json "p" with
            | Some p -> p
            | None -> reject "\"p\" (processor count) is required for op:\"partition\""
          in
          let m_local =
            match int_field json "m" with
            | Some m -> m
            | None ->
              reject "\"m\" (per-processor fast-memory words) is required for \
                      op:\"partition\""
          in
          Partition { procs; m_local; net = decode_net json }
        | other -> reject "unknown op %S (analyze, sweep, compile, partition)" other
      in
      let deadline_s =
        match Jsonlite.num_member "deadline_ms" json with
        | Some ms when ms >= 0.0 -> Some (ms /. 1000.0)
        | Some _ -> reject "\"deadline_ms\" must be non-negative"
        | None -> (
          match Jsonlite.member "deadline_ms" json with
          | None | Some Jsonlite.Null -> None
          | Some _ -> reject "\"deadline_ms\" must be a number")
      in
      Ok { id; v; spec; body; deadline_s; warnings = !warnings }
    with Reject err -> Error { err_id; err_v = !v; err })

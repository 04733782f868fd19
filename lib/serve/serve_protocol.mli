(** Wire rendering + shared decode helpers of the [tilings serve]
    protocol. The typed request union and its versioned decoder live in
    {!Request}; this module owns the response envelopes (and the small
    JSON field readers the decoder is built from).

    Newline-delimited JSON, one request per line, one response line per
    request, in arrival order. Two schema versions are spoken: a request
    may carry ["v":1] (or omit ["v"], which means v1) or ["v":2]; the
    response envelope echoes the request's version. See {!Request} for
    the request schema and the v1 compatibility rules.

    Response lines:
    {v
      {"v":1,"id":"r42","ok":true,"report":{...Report.to_json...}}
      {"v":2,"id":"s1","ok":true,"reports":[{...},{...}]}
      {"v":1,"id":"c1","ok":true,"plan":{...Tiling_plan.to_json...}}
      {"v":2,"id":"p1","ok":true,"partition":{...Partition_solve.to_json...}}
      {"v":1,"id":"r42","ok":false,
       "error":{"code":"deadline_exceeded","message":"..."}}
    v}
    A non-empty [warnings] list renders between ["ok"] and the payload:
    {v
      {"v":1,"id":"r1","ok":true,
       "warnings":[{"code":"deprecated_field","field":"op","message":"..."}],
       "report":{...}}
    v}
    The embedded ["report"] object is byte-identical to what the
    one-shot [tilings sweep] emits for the same request, and the
    ["partition"] object to what [tilings partition] prints. Error
    ["code"]s are {!Engine_error.code} values; [parse_error]s carry
    ["line"] and ["col"] fields too. *)

type warning = { w_code : string; w_field : string; w_message : string }
(** A structured, non-fatal decode diagnostic echoed in the response. *)

val deprecated_field : field:string -> message:string -> warning
(** The ["deprecated_field"] warning a v1 request earns by omitting an
    envelope field the v2 schema made explicit. *)

val ok_response :
  ?warnings:warning list -> v:int -> id:string option -> report_json:string -> unit -> string
(** [report_json] must be a pre-rendered JSON object
    ({!Report.to_json}). *)

val sweep_response :
  ?warnings:warning list ->
  v:int -> id:string option -> report_jsons:string list -> unit -> string
(** Success envelope for [op = "sweep"]: the reports, in request order,
    as one JSON array. *)

val plan_response :
  ?warnings:warning list -> v:int -> id:string option -> plan_json:string -> unit -> string
(** Success envelope for [op = "compile"]; [plan_json] is
    {!Tiling_plan.to_json} output. *)

val partition_response :
  ?warnings:warning list ->
  v:int -> id:string option -> partition_json:string -> unit -> string
(** Success envelope for [op = "partition"]; [partition_json] is
    {!Partition_solve.to_json} output, embedded verbatim — the CLI
    byte-identity guarantee. *)

val error_response : v:int -> id:string option -> Engine_error.t -> string

(** {1 Decode helpers}

    Building blocks for {!Request.decode}; exposed because the decoder
    lives in its own module and the tests exercise them directly. *)

val jstr : string -> string
val jid : string option -> string

exception Reject of Engine_error.t
(** Internal control flow of the decoder; never escapes
    {!Request.decode}. *)

val reject : ('a, unit, string, 'b) format4 -> 'a
(** Raise {!Reject} with [Invalid_request] of the formatted message. *)

val string_list : Jsonlite.t -> string -> default:string list -> string list
val bool_field : Jsonlite.t -> string -> default:bool -> bool
val int_field : Jsonlite.t -> string -> int option

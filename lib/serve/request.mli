(** The typed request union of the serve protocol, and the one
    versioned decoder every transport funnels through.

    Request object (v2; v1 differences below):
    {v
      {"v": 2,                  // 1 (or absent = 1) and 2 accepted
       "id": "r42",             // optional, echoed back verbatim;
                                // absent -> daemon mints "srv-N"
       "op": "analyze",         // analyze | sweep | compile | partition
                                // required in v2; v1 defaults to
                                // "analyze" with a deprecated_field
                                // warning
       "kernel": "matmul",      // preset | alias | DSL (all ops)
       "m": 4096,               // analyze: fast-memory words;
                                // partition: per-processor words
       "ms": [256, 1024],       // sweep only: the sizes to sweep
       "p": 64,                 // partition only: processor count
       "net": "words",          // partition only; default "words", or
                                // {"alpha": 2, "beta": "1/2"} with
                                // non-negative rationals (numbers or
                                // "p/q" strings)
       "schedules": ["optimal", "classic", "untiled"],  // default []
       "policies": ["lru", "fifo", "opt"],              // default ["lru"]
       "shared": true,          // default true (analyze/sweep)
       "deadline_ms": 250,      // optional per-request budget
       "timings": false}        // default false (analyze/sweep)
    v}
    Unknown fields are ignored (forward compatibility). The simulations
    run are the cross product [schedules x policies], exactly like
    [tilings sweep].

    v1 compatibility: everything v1 accepted still decodes — ["v"]
    absent or 1, ["op"] optional (missing means ["analyze"], which now
    earns a structured [deprecated_field] warning in the response rather
    than an error). The newer ops are accepted at either version; only
    the "op is required" rule is v2-specific. *)

type body =
  | Analyze of {
      m : int;
      sims : Pipeline.sim_request list;
      shared : bool;
      timings : bool;
    }
  | Sweep of {
      ms : int list;  (** non-empty; one report per size, input order *)
      sims : Pipeline.sim_request list;
      shared : bool;
      timings : bool;
    }
  | Compile  (** the kernel shape's compiled tiling plan *)
  | Partition of {
      procs : int;
      m_local : int;
      net : Partition_solve.network;
    }  (** distributed-memory grid + tile ({!Pipeline.partition_checked}) *)

type t = {
  id : string option;
  v : int;  (** wire version the request arrived at (1 or 2) *)
  spec : Spec.t;
  body : body;
  deadline_s : float option;  (** relative budget in seconds, [>= 0] *)
  warnings : Serve_protocol.warning list;
      (** non-fatal decode diagnostics, echoed in the response *)
}

type decode_error = {
  err_id : string option;
      (** the request's ["id"] when the line parsed far enough to have
          one — so even a rejected request gets a correlatable answer *)
  err_v : int;  (** version to stamp on the error envelope (1 if unknown) *)
  err : Engine_error.t;
}

val spec_of_kernel : string -> (Spec.t, Engine_error.t) result
(** Resolve a ["kernel"] value in any accepted spelling, as every
    surface that takes a kernel does (the wire field, and every CLI
    kernel argument): text containing [':'] is parsed as
    the DSL ([Parse_error] with its line/column on failure), anything
    else is a preset name, alias or unique prefix ({!Kernels.lookup};
    [Invalid_spec] naming the candidates on failure). *)

val sims :
  schedules:Pipeline.schedule_choice list ->
  policies:Policy.t list ->
  Pipeline.sim_request list
(** The simulations a request runs: the cross product
    [schedules x policies], schedule-major — how the wire's
    ["schedules"]/["policies"] fields and [tilings sweep]'s
    [--schedules]/[--policies] expand. *)

val decode : string -> (t, decode_error) result
(** Decode one request line. Malformed JSON -> [Parse_error]; a
    non-object or missing/ill-typed field -> [Invalid_request]; an
    unknown preset -> [Invalid_spec]; a DSL kernel that fails to parse
    -> [Parse_error] with the DSL's line/column; a malformed ["net"]
    -> [Network_model_invalid]. *)

val op_name : body -> string
(** ["analyze"] / ["sweep"] / ["compile"] / ["partition"] — for logs. *)

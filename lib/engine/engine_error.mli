(** Typed errors for the checked engine API.

    Every way an analysis request can fail — short of a bug — is one of
    these constructors. The request entry points
    ({!Pipeline.run_checked}, {!Pipeline.sweep_checked},
    {!Pipeline.partition_checked}) return them as [result]s; the CLI
    renders them with distinct exit codes; the [tilings serve] daemon
    serializes them as structured error responses keyed by {!code}.

    The a-la-carte stages ({!Pipeline.lower_bound},
    {!Pipeline.tile_shared}, {!Pipeline.hierarchy}, ...) have no
    [result] form and raise {!Error} instead. *)

type t =
  | Parse_error of { line : int; col : int; message : string }
      (** user-supplied text (kernel DSL or a wire request line) failed
          to parse; positions are 1-based, 0 when unknown *)
  | Invalid_spec of string
      (** the spec is structurally invalid, or an unknown preset *)
  | Invalid_request of string
      (** a wire request decoded as JSON but has the wrong shape or an
          unsupported schema version *)
  | Cache_too_small of { m : int; min_words : int }
      (** [m] words cannot hold one word per array (or is below the
          2-word floor the bound needs) *)
  | Kernel_too_large of { iterations : string; limit : int }
      (** a simulation was requested but the exact iteration count
          (rendered as a decimal string — it may exceed [max_int])
          is past the simulator's budget *)
  | Deadline_exceeded of { stage : string }
      (** the request's deadline passed before/while running [stage] *)
  | Overloaded of { capacity : int }
      (** admission queue full: the request was rejected, not queued *)
  | Shape_too_large of { detail : string }
      (** {!Tiling_plan.compile} refused the shape (directly, or
          through {!Closed_form.compute}, which reads the compiled
          plan): its vertex-enumeration candidate count exceeds the
          budget. Analysis requests for such shapes still succeed via
          the direct LP path; only explicit compilation fails. *)
  | Unfactorable_p of { p : int }
      (** a partition request's processor count has no grid
          factorization within the kernel's loop bounds (e.g. a prime
          [p] larger than every bound) *)
  | Network_model_invalid of string
      (** a partition request's network model is malformed: negative
          [alpha]/[beta], non-rational values, or an unknown model name *)
  | Internal of string  (** an invariant violation surfaced as [Failure] *)

exception Error of t

val raise_error : t -> 'a
(** [raise (Error t)], typed as ['a] for tail positions. *)

val code : t -> string
(** Stable wire identifier: ["parse_error"], ["invalid_spec"],
    ["invalid_request"], ["cache_too_small"], ["kernel_too_large"],
    ["deadline_exceeded"], ["overloaded"], ["shape_too_large"],
    ["unfactorable_p"], ["network_model_invalid"], ["internal"]. *)

val exit_code : t -> int
(** Distinct CLI exit codes, disjoint from 0 (success), 1 (generic) and
    cmdliner's 124/125: parse_error 2, invalid_spec 3, cache_too_small 4,
    kernel_too_large 5, deadline_exceeded 6, overloaded 7,
    invalid_request 8, internal 10, shape_too_large 11,
    unfactorable_p 12, network_model_invalid 13. *)

val to_string : t -> string
(** Human-readable one-line message (no trailing newline). *)

val of_exn : exn -> t option
(** Classify an exception raised by the analysis stack:
    [Error t] itself, [Invalid_argument] (-> [Shape_too_large] when the
    message carries the enumerators' ["shape too large"] marker,
    [Invalid_spec] otherwise) and [Failure] (-> [Internal]). [None] for
    anything else — asynchronous exceptions must not be swallowed. *)

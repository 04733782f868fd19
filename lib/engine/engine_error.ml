type t =
  | Parse_error of { line : int; col : int; message : string }
  | Invalid_spec of string
  | Invalid_request of string
  | Cache_too_small of { m : int; min_words : int }
  | Kernel_too_large of { iterations : string; limit : int }
  | Deadline_exceeded of { stage : string }
  | Overloaded of { capacity : int }
  | Shape_too_large of { detail : string }
  | Unfactorable_p of { p : int }
  | Network_model_invalid of string
  | Internal of string

exception Error of t

let raise_error t = raise (Error t)

let code = function
  | Parse_error _ -> "parse_error"
  | Invalid_spec _ -> "invalid_spec"
  | Invalid_request _ -> "invalid_request"
  | Cache_too_small _ -> "cache_too_small"
  | Kernel_too_large _ -> "kernel_too_large"
  | Deadline_exceeded _ -> "deadline_exceeded"
  | Overloaded _ -> "overloaded"
  | Shape_too_large _ -> "shape_too_large"
  | Unfactorable_p _ -> "unfactorable_p"
  | Network_model_invalid _ -> "network_model_invalid"
  | Internal _ -> "internal"

let exit_code = function
  | Parse_error _ -> 2
  | Invalid_spec _ -> 3
  | Cache_too_small _ -> 4
  | Kernel_too_large _ -> 5
  | Deadline_exceeded _ -> 6
  | Overloaded _ -> 7
  | Invalid_request _ -> 8
  | Internal _ -> 10
  | Shape_too_large _ -> 11
  | Unfactorable_p _ -> 12
  | Network_model_invalid _ -> 13

let to_string = function
  | Parse_error { line; col; message } ->
    if line = 0 && col = 0 then Printf.sprintf "parse error: %s" message
    else Printf.sprintf "parse error: line %d, col %d: %s" line col message
  | Invalid_spec msg -> Printf.sprintf "invalid spec: %s" msg
  | Invalid_request msg -> Printf.sprintf "invalid request: %s" msg
  | Cache_too_small { m; min_words } ->
    Printf.sprintf "cache too small for this kernel: m = %d words, need at least %d" m
      min_words
  | Kernel_too_large { iterations; limit } ->
    Printf.sprintf
      "kernel too large to simulate (%s iterations > %d); shrink the bounds" iterations
      limit
  | Deadline_exceeded { stage } ->
    Printf.sprintf "deadline exceeded (in %s)" stage
  | Overloaded { capacity } ->
    Printf.sprintf "server overloaded: admission queue full (capacity %d); retry later"
      capacity
  | Shape_too_large { detail } ->
    Printf.sprintf "shape too large for closed-form/plan compilation: %s" detail
  | Unfactorable_p { p } ->
    Printf.sprintf
      "p = %d has no processor-grid factorization within the loop bounds" p
  | Network_model_invalid msg -> Printf.sprintf "invalid network model: %s" msg
  | Internal msg -> Printf.sprintf "internal error: %s" msg

(* Tiling_plan.compile refuses oversized shapes with an Invalid_argument
   whose message carries this marker, and Closed_form.compute passes the
   same refusal on because it reads the compiled plan; anything else
   invalid about a spec stays Invalid_spec. *)
let shape_marker = "shape too large"

let contains_marker msg =
  let lm = String.length shape_marker and l = String.length msg in
  let rec go i = i + lm <= l && (String.sub msg i lm = shape_marker || go (i + 1)) in
  go 0

let of_exn = function
  | Error t -> Some t
  | Invalid_argument msg when contains_marker msg -> Some (Shape_too_large { detail = msg })
  | Invalid_argument msg -> Some (Invalid_spec msg)
  | Failure msg -> Some (Internal msg)
  | _ -> None

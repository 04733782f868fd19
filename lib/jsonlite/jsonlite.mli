(** Minimal dependency-free JSON: a value type, a strict recursive-descent
    parser, a few accessors, and the one string writer every JSON
    emitter in the repo shares ({!quote}).

    Exists because the repo's machine-readable outputs (reports, serve
    responses, plans, the ["obs"] sections, [BENCH_engine.json], Chrome
    trace files) are written by hand and need to be read back by
    [bench/compare] and by tests, and the toolchain has no JSON library
    installed. Numbers are floats (sufficient for our writers),
    [\uXXXX] escapes decode to UTF-8, surrogate pairs are not combined. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
(** Strict parse of a complete document (trailing whitespace allowed,
    anything else is an error). *)

val parse_exn : string -> t
(** @raise Parse_error on malformed input. *)

val of_file : string -> (t, string) result

val quote : string -> string
(** [quote s] is [s] as a JSON string literal, quotes included: ["\""]
    and ["\\"] are backslash-escaped, newline and tab become [\n] and
    [\t], every other byte below [0x20] becomes [\u00XX], and every
    other byte (DEL and UTF-8 included) passes through raw. {!parse}
    reads the result back to [s]. *)

(** {1 Accessors} — all total, [None] on shape mismatch. *)

val member : string -> t -> t option
val to_list : t -> t list option
val to_num : t -> float option
val to_str : t -> string option
val to_obj : t -> (string * t) list option
val num_member : string -> t -> float option
val str_member : string -> t -> string option
val list_member : string -> t -> t list option

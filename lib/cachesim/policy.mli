(** Cache replacement policies supported by the simulator. *)

type t =
  | Lru  (** least-recently-used — the standard practical policy *)
  | Fifo  (** first-in-first-out — a cheaper, weaker baseline *)
  | Opt
      (** Belady's offline-optimal (MIN) replacement: evict the line whose
          next use is farthest in the future. Only available through
          {!Trace.simulate}, which knows the whole trace. *)

val to_string : t -> string

val names : (string * t) list
(** The wire and command-line names ([lru], [fifo], [opt]), in the order
    error messages list them. The one table the CLI and the serve
    decoder share. *)

val pp : Format.formatter -> t -> unit

(** Memory layout: assigns every array element a distinct word address.

    Arrays are laid out consecutively, each in row-major order over its
    (projected) extents. The executor uses this to turn an iteration point
    into the set of word addresses the loop body touches. *)

type t

val make : Spec.t -> t

val spec : t -> Spec.t

val base : t -> int -> int
(** Starting address of array [j]. *)

val total_words : t -> int

val address : t -> int -> int array -> int
(** [address t j point] — address of the element of array [j] accessed at
    the full [d]-dimensional iteration [point] (the projection is applied
    here). [point] uses 0-based coordinates. *)

val address_of_index : t -> int -> int array -> int
(** Same, but from the array's own (projected) index vector. *)

val strides : t -> int -> int array
(** [strides t j] has one entry per loop: the address step of array [j]
    when that loop's index grows by one, [0] for loops outside the
    array's support. [address t j point] is
    [base t j + sum_i (strides t j).(i) * point.(i)]. *)

val array_of_address : t -> int -> (int * int array) option
(** Reverse mapping (array id, projected index); [None] if out of range.
    Intended for debugging and tests. *)

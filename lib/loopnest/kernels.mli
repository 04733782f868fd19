(** Stock projective loop nests — the kernels studied in the paper.

    Each constructor takes its loop bounds and returns a validated
    {!Spec.t}. These match the programs of Sections 1, 6.1, 6.2 and 6.3 of
    the paper. *)

val matmul : l1:int -> l2:int -> l3:int -> Spec.t
(** [C(x1,x3) += A(x1,x2) * B(x2,x3)] — Section 6.1. With the paper's
    conventions: [phi_1 = (x1,x3)], [phi_2 = (x1,x2)], [phi_3 = (x2,x3)]. *)

val matvec : m:int -> n:int -> Spec.t
(** Matrix-vector multiply: [matmul] with [l3 = 1]. *)

val tensor_contraction : j:int -> k:int -> d:int -> bounds:int array -> Spec.t
(** Section 6.2's generic contraction with [1 <= j < k-1 < d]:
    [A1(x_1..x_j, x_k..x_d) += A2(x_1..x_{k-1}) * A3(x_{j+1}..x_d)].
    [bounds] has length [d]; indices here are 1-based like the paper.
    @raise Invalid_argument if the index pattern is violated. *)

val pointwise_conv : b:int -> c:int -> k:int -> w:int -> h:int -> Spec.t
(** 1x1 ("pointwise") convolution, eq. (6.5):
    [Out(k,h,w,b) += Image(w,h,c,b) * Filter(k,c)]. Loop order
    [b, c, k, w, h]. *)

val fully_connected : batch:int -> cin:int -> cout:int -> Spec.t
(** A fully connected layer [Out(b,o) += In(b,i) * W(i,o)] — structurally
    matmul, listed separately because Section 6.2 calls it out. *)

val nbody : l1:int -> l2:int -> Spec.t
(** Pairwise interactions, Section 6.3:
    [A1(x1) = f(A2(x1), A3(x2))]. *)

val outer_product : m:int -> n:int -> Spec.t
(** [C(x1,x2) += a(x1) * b(x2)] — a 2-loop projective nest whose tile LP
    exercises the [b_i <= L_i] constraints in a different pattern from
    n-body. *)

val batched_matmul : batch:int -> l1:int -> l2:int -> l3:int -> Spec.t
(** [C(b,x1,x3) += A(b,x1,x2) * B(b,x2,x3)] — the batch index appears in
    every support, so the optimal tile never splits more of it than
    necessary. *)

val mttkrp : i:int -> j:int -> k:int -> r:int -> Spec.t
(** Matricized tensor times Khatri-Rao product, the workhorse of sparse
    and dense CP tensor decomposition:
    [M(i,r) += T(i,j,k) * B(j,r) * C(k,r)] — 4 loops, 4 arrays, all
    projective. *)

val three_body : l1:int -> l2:int -> l3:int -> Spec.t
(** Three-way interactions [A1(x1) += f(A2(x1), A3(x2), A4(x3))] — the
    [k]-body generalization of Section 6.3 for [k = 3]. *)

val all : unit -> (string * Spec.t) list
(** A representative instance of every kernel, for tests and demos. *)

(** {1 Name resolution}

    {!lookup} resolves names; [Request.spec_of_kernel] adds the DSL
    spelling and the typed errors, and is what the serve daemon's wire
    protocol and the CLI's by-name kernel arguments ([profile],
    [partition]) call, so every surface accepts exactly the same
    spellings. *)

val aliases : (string * string) list
(** Shorthand -> preset name: [mm], [mv], [conv], [fc], [bmm]. *)

val lookup : string -> (Spec.t, string) result
(** Resolve a preset name, an alias, or a unique preset-name prefix
    against {!all}. The error message lists the candidates. *)

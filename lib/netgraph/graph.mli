(** The graph type's historical name, and the library's edge
    comparator.

    [t], {!of_edges} and {!equal} are {!Csr.t}, {!Csr.of_edges} and
    {!Csr.equal} under their old names, kept only for the benchmark
    program under [perfbench/], which compiles against them; library
    code uses {!Csr} directly. *)

type t = Csr.t

val of_edges : int -> (int * int) list -> t
val equal : t -> t -> bool

(** [compare_edge] orders int pairs lexicographically — exactly as the
    polymorphic [compare] does, without the boxed C call; the
    comparator for sorting and deduplicating edge lists. *)
val compare_edge : int * int -> int * int -> int

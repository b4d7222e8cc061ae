(** The former read-only view over two graph representations, now
    that {!Csr.t} is the only one.  Kept only for the benchmark program
    under [perfbench/], which compiles against {!of_graph}; library
    code uses {!Csr} directly. *)

type t = Csr.t

(** The identity. *)
val of_graph : Graph.t -> t

(** A read-only view over either graph representation.

    Algorithms that only {e read} a topology — traversals, components,
    MST, planarity checks, quality metrics, routing — are written once
    against this signature and accept the legacy mutable {!Graph.t}
    and the read-optimized {!Csr.t} uniformly: wrap with {!of_graph}
    or {!of_csr} and call the same functions.  Construction code
    should produce {!Csr.t} (row filters, {!Csr.of_rows}) and hand
    consumers a snapshot view; [Graph]-typed entry points remain as thin adapters
    for tests and examples. *)

type t

val of_graph : Graph.t -> t
val of_csr : Csr.t -> t

(** [same a b] holds when both views wrap the very same graph value
    (physical equality), so anything computed on one holds for the
    other. *)
val same : t -> t -> bool

val node_count : t -> int

(** Number of undirected edges. *)
val edge_count : t -> int

val degree : t -> int -> int
val has_edge : t -> int -> int -> bool

(** Neighbor iteration, increasing id order (both representations
    keep rows sorted). *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
val neighbors : t -> int -> int list

(** Edge iteration with [u < v], lexicographic order. *)
val iter_edges : t -> (int -> int -> unit) -> unit

val fold_edges : t -> ('a -> int -> int -> 'a) -> 'a -> 'a
val edges : t -> (int * int) list

(** [to_csr v] freezes the view for engines that want flat rows.  A
    snapshot view is returned as-is when it already satisfies the
    weight request; otherwise weights are (re)computed from [points]
    (an existing snapshot's weights are trusted — pass the same
    [points] the snapshot was sealed with). *)
val to_csr :
  ?points:Geometry.Point.t array -> ?beta:float -> t -> Csr.t

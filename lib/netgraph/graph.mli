(** Undirected graphs over dense integer node ids [0 .. n-1].

    This is the shared substrate for every topology in the library:
    the unit disk graph, the proximity baselines, the CDS backbone
    variants and the localized Delaunay structures are all values of
    this one type, so quality metrics and routing run uniformly over
    all of them.

    The representation is one sorted, duplicate-free int row per node
    plus its degree, with spare capacity doubled as a row fills:
    {!degree} is O(1), {!has_edge} a binary search, O(log d), and
    neighbor iteration a scan of one array.  {!add_edge} appends in
    O(1) when the new neighbor is above the row's last entry (edges
    added in increasing id order, as {!induced} and {!Csr.to_graph}
    do) and shifts the row, O(d), otherwise; {!remove_edge} shifts,
    O(d).  The structures involved are sparse (bounded degree), so
    the shifts stay short.  The iterators read the live rows: adding
    or removing edges of a graph while iterating over that same graph
    is unspecified. *)

type t

(** [create n] is the edgeless graph on [n] nodes. *)
val create : int -> t

(** Number of nodes. *)
val node_count : t -> int

(** Number of (undirected) edges. *)
val edge_count : t -> int

(** [add_edge g u v] inserts the undirected edge [{u, v}].  Inserting
    an existing edge is a no-op.  Self-loops are rejected.
    @raise Invalid_argument on [u = v] or out-of-range ids. *)
val add_edge : t -> int -> int -> unit

(** [remove_edge g u v] deletes the edge if present. *)
val remove_edge : t -> int -> int -> unit

(** [has_edge g u v] tests edge membership. *)
val has_edge : t -> int -> int -> bool

(** Neighbors of [u] in increasing id order. *)
val neighbors : t -> int -> int list

(** [degree g u] is the number of neighbors of [u]. *)
val degree : t -> int -> int

(** [iter_neighbors g u f] calls [f v] for each neighbor of [u] in
    increasing id order, without materializing a list — the
    allocation-free form of {!neighbors} that every traversal should
    prefer. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [fold_neighbors g u f init] folds [f] over the neighbors of [u]
    in increasing id order. *)
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** [iter_edges g f] calls [f u v] once per edge with [u < v]. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [fold_edges g f init] folds over edges with [u < v]. *)
val fold_edges : t -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** All edges as [(u, v)] pairs with [u < v], lexicographically. *)
val edges : t -> (int * int) list

(** [compare_edge] orders int pairs lexicographically — exactly as the
    polymorphic [compare] does, without the boxed C call; the
    comparator for sorting and deduplicating edge lists. *)
val compare_edge : int * int -> int * int -> int

(** [of_edges n edges] builds a graph from an edge list. *)
val of_edges : int -> (int * int) list -> t

(** [of_sorted_rows ~offsets ~targets] is the graph whose node [u]
    has neighbors [targets.(offsets.(u)) .. targets.(offsets.(u+1) - 1)]
    — a CSR snapshot's arrays, which it copies row by row in
    O(n + m) and does not alias.  The rows are trusted, not checked:
    each must be strictly increasing, in range, free of [u] itself,
    and the rows symmetric; {!Csr.to_graph} is the caller. *)
val of_sorted_rows : offsets:int array -> targets:int array -> t

(** Deep copy: no row is shared, so mutating either graph leaves the
    other unchanged. *)
val copy : t -> t

(** [union g1 g2] is a fresh graph with every edge of both (same
    node count required); neither argument is shared or changed.
    @raise Invalid_argument on mismatched node counts. *)
val union : t -> t -> t

(** [is_subgraph g1 g2] holds when every edge of [g1] is in [g2]. *)
val is_subgraph : t -> t -> bool

(** [induced g keep] is the subgraph of [g] whose edges have both
    endpoints satisfying [keep]; the node set (and ids) are unchanged,
    nodes outside [keep] simply become isolated. *)
val induced : t -> (int -> bool) -> t

(** [equal g1 g2] holds when both graphs have identical node counts
    and edge sets. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** {2 Deterministic hash-table iteration}

    [Hashtbl.iter]/[fold] visit bindings in hash order, which varies
    with insertion history; anywhere that order can reach an output or
    a metric must go through these wrappers instead (lint rule D002).
    Bindings are materialized and sorted by key with the explicit
    comparator before visiting; with [Hashtbl.replace]-maintained
    tables the result is a deterministic one-pass iteration. *)

val sorted_tbl_bindings :
  ('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list

val sorted_tbl_iter :
  ('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit

val sorted_tbl_fold :
  ('k -> 'k -> int) ->
  ('k -> 'v -> 'a -> 'a) ->
  ('k, 'v) Hashtbl.t ->
  'a ->
  'a

(** Minimum spanning trees / forests under Euclidean edge weights.

    The MST is the connectivity witness of the proximity structures:
    [MST ⊆ RNG ⊆ GG ⊆ Del], so showing a structure contains the MST of
    each component proves it preserves connectivity.  The test-suite
    uses exactly that chain. *)

(** [minimum_spanning_forest g points] is the minimum-weight spanning
    forest of [g] (one tree per connected component) with edge weight
    [dist points.(u) points.(v)], via Kruskal with union-find. *)
val minimum_spanning_forest : Csr.t -> Geometry.Point.t array -> Csr.t

(** Total Euclidean weight of the forest of [g]. *)
val forest_weight : Csr.t -> Geometry.Point.t array -> float

(** [is_spanning_forest g f] checks that [f] is a subgraph of [g],
    acyclic, and connects exactly the components of [g]. *)
val is_spanning_forest : Csr.t -> Csr.t -> bool

(** Flat proximity-graph baselines on the unit disk graph.

    These are the structures the paper compares against: the relative
    neighborhood graph and Gabriel graph (used by GPSR), the Yao graph
    (used by cone-based topology control), and [UDel], the Delaunay
    triangulation restricted to unit-length edges, which is the target
    the localized Delaunay construction approximates. *)

(** [rng_graph udg points] keeps a UDG edge [uv] when the open lune of
    [u, v] contains no other node — the relative neighborhood graph. *)
val rng_graph :
  Netgraph.Csr.t -> Geometry.Point.t array -> Netgraph.Csr.t

(** [gabriel_graph udg points] keeps a UDG edge [uv] when the open
    disk with diameter [uv] contains no other node. *)
val gabriel_graph :
  Netgraph.Csr.t -> Geometry.Point.t array -> Netgraph.Csr.t

(** [yao_graph udg points ~cones] adds, for every node and each of its
    [cones] equal-angle sectors, an (undirected) edge to the nearest
    UDG neighbor in the sector.  Ties break toward the smaller node
    id.  @raise Invalid_argument when [cones < 1]. *)
val yao_graph :
  Netgraph.Csr.t -> Geometry.Point.t array -> cones:int -> Netgraph.Csr.t

(** [udel points ~radius] is [Del(V) ∩ UDG(V)]: Delaunay edges of
    length at most [radius]. *)
val udel : Geometry.Point.t array -> radius:float -> Netgraph.Csr.t

(** [is_rng_edge points udg u v] checks the RNG empty-lune criterion
    for one UDG edge (used by tests and by the distributed protocol's
    local decisions). *)
val is_rng_edge :
  Geometry.Point.t array -> Netgraph.Csr.t -> int -> int -> bool

(** [is_gabriel_edge points udg u v] checks the Gabriel empty-disk
    criterion for one UDG edge. *)
val is_gabriel_edge :
  Geometry.Point.t array -> Netgraph.Csr.t -> int -> int -> bool

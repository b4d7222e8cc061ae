(** Shortest paths by hops (BFS) and by Euclidean length (Dijkstra).

    The spanner definitions in the paper are stated for two metrics:
    the hop metric (number of links) and the length metric (sum of
    Euclidean link lengths).  Per-source distance arrays are
    {!Csr.bfs} and {!Csr.dijkstra}; this module adds the paths
    themselves and the measures built on them. *)

(** [bfs_path g s t] is a shortest-hop path from [s] to [t] inclusive,
    or [None] when unreachable. *)
val bfs_path : Csr.t -> int -> int -> int list option

(** [dijkstra_path g points s t] is a shortest-length path from [s]
    to [t] inclusive, with edge weight [dist points.(u) points.(v)],
    or [None] when unreachable. *)
val dijkstra_path :
  Csr.t -> Geometry.Point.t array -> int -> int -> int list option

(** [path_length points p] is the Euclidean length of the node path. *)
val path_length : Geometry.Point.t array -> int list -> float

(** [path_hops p] is the number of links in the node path. *)
val path_hops : int list -> int

(** [is_path g p] holds when consecutive nodes of [p] are adjacent in
    [g]. *)
val is_path : Csr.t -> int list -> bool

(** [eccentricity g s] is the largest finite hop distance from [s]. *)
val eccentricity : Csr.t -> int -> int

(** Largest hop distance over all pairs (graph must be connected). *)
val diameter : Csr.t -> int

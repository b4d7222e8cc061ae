(** Unit disk graphs.

    Two nodes are linked exactly when their Euclidean distance is at
    most the transmission radius; after the paper's scaling the radius
    is "one unit", but the experiments vary it, so it stays a
    parameter here.  Construction uses a spatial grid, i.e. the same
    neighbor-discovery a node would do by listening locally. *)

(** [build points ~radius] is the unit disk graph of range [radius]:
    [u] and [v] are linked exactly when [Geometry.Point.dist] puts
    them within [radius].  It is the one UDG kernel.  With [pool], the
    per-node count/fill passes fan out across its domains; the
    snapshot is bit-identical for any job count.  Counts one
    [grid.queries] per node.
    @raise Invalid_argument when [radius <= 0]. *)
val build :
  ?pool:Netgraph.Pool.t ->
  Geometry.Point.t array ->
  radius:float ->
  Netgraph.Csr.t

(** [observe_queries udg] records each node's degree in [udg] in the
    [grid.query_results] dist, one sample per node as a per-node grid
    query would (nothing for fewer than two nodes).  The callers that
    hold a UDG for its own sake ([Deploy.connected_uniform], the
    benchmarks' standalone UDGs) run it; the pipelines do not. *)
val observe_queries : Netgraph.Csr.t -> unit

(** [neighborhood points ~radius u ~hops] is the set of nodes within
    [hops] hops of [u] in the UDG (the paper's [N_k(u)], including [u]
    itself), computed from an existing graph. *)
val neighborhood : Netgraph.Csr.t -> int -> hops:int -> int list

(** [is_udg points ~radius g] checks that [g] is exactly the unit disk
    graph of [points] — every pair with [Geometry.Point.dist] at most
    [radius] linked, no other link. *)
val is_udg : Geometry.Point.t array -> radius:float -> Netgraph.Csr.t -> bool

(** [build_quasi rng points ~r_min ~r_max] is the quasi unit disk
    graph, the standard relaxation of the paper's idealized radio
    model (its future-work section): pairs within [r_min] are always
    linked, pairs beyond [r_max] never, and pairs in between are
    linked with probability falling linearly from 1 at [r_min] to 0
    at [r_max].  With [r_min = r_max] this is exactly {!build}.  The
    robustness benches run the paper's construction on these graphs
    to see which guarantees survive a non-ideal radio.
    @raise Invalid_argument unless [0 < r_min <= r_max]. *)
val build_quasi :
  Rand.t ->
  Geometry.Point.t array ->
  r_min:float ->
  r_max:float ->
  Netgraph.Csr.t

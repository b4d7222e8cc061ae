(** Topology quality metrics: degree statistics, stretch factors and
    planarity-related counts — the quantities reported in the paper's
    Table I and Figures 8–12.

    All-pairs stretch is the library's dominant cost (one SSSP per
    source per metric per graph), so it runs on a fused engine: graphs
    are frozen into {!Csr} snapshots, every requested metric (length,
    hop, optionally power) is computed in one pass per source, the
    base graph's distances are shared across all compared
    substructures ({!combined_stretch}), and sources fan out across a
    {!Pool} of domains ([?jobs]).  Results are bit-for-bit identical
    for every [jobs] value: each source writes partial sums into its
    own slot and the reduction folds them in source order. *)

type degree_stats = {
  deg_avg : float;  (** average degree over all nodes, [2m/n] *)
  deg_max : int;    (** maximum degree *)
  edges : int;      (** number of undirected edges *)
}

val degree_stats : Graph.t -> degree_stats

(** Same statistics over a read-only {!View.t} — accepts legacy
    graphs and {!Csr.t} snapshots uniformly. *)
val degree_stats_v : View.t -> degree_stats

type stretch = {
  len_avg : float;  (** average length stretch over connected pairs *)
  len_max : float;  (** maximum length stretch *)
  hop_avg : float;  (** average hop stretch over connected pairs *)
  hop_max : float;  (** maximum hop stretch *)
}

(** [stretch_factors ~base ~sub points] measures how much longer paths
    get when restricted to [sub] instead of [base], over every node
    pair connected in [base].

    With [one_hop_direct] (default [true]) pairs adjacent in [base]
    contribute stretch exactly 1: this is the paper's routing model,
    where a node transmits directly to any destination within range
    and only out-of-range destinations go through the structure.
    Pass [~one_hop_direct:false] to measure the raw subgraph stretch
    (used by the spanner-definition tests).

    [jobs] (default 1) fans per-source SSSPs out across that many
    domains; any value returns bit-identical numbers.

    @raise Invalid_argument if some pair connected in [base] is
    disconnected in [sub] — a subgraph that loses connectivity is not
    a spanner at all, and silently skipping such pairs would hide the
    failure. *)
val stretch_factors :
  ?one_hop_direct:bool ->
  ?jobs:int ->
  base:Graph.t -> sub:Graph.t -> Geometry.Point.t array -> stretch

(** [power_stretch ~base ~sub points ~beta] is the power stretch
    factor with path cost [sum |link|^beta] (the paper's power model
    with attenuation exponent [beta], typically in [2, 5]): average
    and maximum over connected pairs. *)
val power_stretch :
  ?one_hop_direct:bool ->
  ?jobs:int ->
  base:Graph.t ->
  sub:Graph.t ->
  Geometry.Point.t array ->
  beta:float ->
  float * float

(** One structure's fused measurement: length/hop stretch, plus the
    power stretch pair when a [beta] was requested. *)
type combined = { c_stretch : stretch; c_power : (float * float) option }

(** [combined_stretch ~base points subs] measures every substructure
    of [subs] against the same [base] in one engine run: the base
    graph's per-source distances are computed once and shared across
    all of them, and each source visits the target scan for length,
    hop and (with [?beta]) power together.  This is what Table I and
    the stretch sweeps call — comparing [k] structures costs
    [(k + 1) * n] SSSP passes per metric instead of [2 k n].  A sub
    that is the base itself ({!View.same}, as Table I's UDG row is)
    reuses the base's distances and costs none; [metrics.sssp]
    counts the passes that run.

    Results are exactly {!stretch_factors} / {!power_stretch} of each
    pair, for any [jobs].

    @raise Invalid_argument on node-count mismatch or a base-connected
    pair disconnected in some sub (first bad sub in list order). *)
val combined_stretch :
  ?one_hop_direct:bool ->
  ?jobs:int ->
  ?beta:float ->
  base:Graph.t ->
  Geometry.Point.t array ->
  (string * Graph.t) list ->
  (string * combined) list

(** View-typed engine entry points: identical semantics and numbers,
    but base and substructures may be {!Csr.t} snapshots (already
    weight-sealed snapshots skip the freeze entirely). *)
val combined_stretch_v :
  ?one_hop_direct:bool ->
  ?jobs:int ->
  ?beta:float ->
  base:View.t ->
  Geometry.Point.t array ->
  (string * View.t) list ->
  (string * combined) list

val stretch_factors_v :
  ?one_hop_direct:bool ->
  ?jobs:int ->
  base:View.t -> sub:View.t -> Geometry.Point.t array -> stretch

(** [sampled_stretch ~sources ~base ~sub points] is length/hop stretch
    restricted to the given source nodes, each measured against every
    node reachable from it in [base] — the per-round health probe used
    by [Core.Monitor], costing [4 |sources|] SSSPs instead of the
    all-pairs engine's [4 n].  Semantics ([one_hop_direct], the
    deterministic source-order reduction, bit-identical results for
    any [jobs]) match {!stretch_factors}.

    @raise Invalid_argument on node-count mismatch, a source index out
    of range, or a base-connected pair disconnected in [sub]. *)
val sampled_stretch :
  ?one_hop_direct:bool ->
  ?jobs:int ->
  sources:int array ->
  base:View.t -> sub:View.t -> Geometry.Point.t array -> stretch

(** Stretch of a single pair: [(length ratio, hop ratio)], or [None]
    when the pair is disconnected in either graph. *)
val pair_stretch :
  base:Graph.t ->
  sub:Graph.t ->
  Geometry.Point.t array ->
  int ->
  int ->
  (float * float) option

(** Total Euclidean length of all edges. *)
val total_edge_length : Graph.t -> Geometry.Point.t array -> float

val total_edge_length_v : View.t -> Geometry.Point.t array -> float

(** [weighted_sssp g cost s] is Dijkstra from [s] with arbitrary edge
    costs [cost u v] — the generic fallback for costs that cannot be
    precomputed per CSR arc.  Unreachable nodes get [infinity]. *)
val weighted_sssp : Graph.t -> (int -> int -> float) -> int -> float array

(** Read-optimized graph snapshots in compressed sparse row form.

    {!Graph.t} is the mutable build-time representation; a [Csr.t]
    freezes it into two int arrays — per-node offsets and a flat,
    row-sorted neighbor array — so traversals touch contiguous memory
    and neighbor iteration allocates nothing.  Optionally the snapshot
    precomputes per-arc edge weights (Euclidean length, and the
    [|e|^beta] power cost), so Dijkstra relaxations stop recomputing
    [Point.dist] in the inner loop.

    This is the substrate of the metrics engine: all-pairs stretch
    runs one SSSP per source, and on CSR each pass is a tight loop
    over int/float arrays that is safe to run from multiple domains
    at once (snapshots are immutable after construction). *)

type t

(** [of_graph g] snapshots [g] without weights.  With [points], each
    arc [u->v] additionally carries the Euclidean weight
    [Point.dist points.(u) points.(v)]; with [beta] (requires
    [points]) also the power weight [dist^beta].
    @raise Invalid_argument when [beta] is given without [points] or
    [points] is shorter than the node count. *)
val of_graph : ?points:Geometry.Point.t array -> ?beta:float -> Graph.t -> t

(** [of_rows ~offsets ~targets ()] adopts pre-built CSR rows without
    going through a {!Graph.t}.  [offsets] has length
    [n + 1] with [offsets.(0) = 0]; row [u] is
    [targets.(offsets.(u)) .. targets.(offsets.(u+1) - 1)] and must be
    strictly increasing (sorted, duplicate-free) with in-range,
    non-self targets.  Rows must be symmetric ([v] in row [u] iff [u]
    in row [v]); this is the caller's obligation — the cheap structural
    checks here do not verify it.  The arrays are adopted, not copied.
    [points]/[beta] precompute arc weights as in {!of_graph}.
    @raise Invalid_argument on malformed offsets or rows. *)
val of_rows :
  ?points:Geometry.Point.t array ->
  ?beta:float ->
  offsets:int array ->
  targets:int array ->
  unit ->
  t

(** [with_weights ?beta t points] is [t] with freshly computed
    Euclidean (and with [beta], power) arc weights — rows are shared,
    only the weight arrays are rebuilt.  Used to upgrade a weightless
    snapshot for the metrics engine without re-sealing. *)
val with_weights : ?beta:float -> t -> Geometry.Point.t array -> t

(** [filter t keep] keeps the arcs [u -> v] of [t] with [keep u v] —
    a subgraph sealed without a sort: rows of [t] are sorted, so the
    kept rows are too.  [keep] must be symmetric ([keep u v = keep v u])
    and pure; with [pool] the count and fill passes fan out over its
    domains and the result is the same for any job count.  [points]
    adds Euclidean arc weights, the same floats as {!of_graph}'s,
    weighed in a row pass on the pool too. *)
val filter :
  ?pool:Pool.t ->
  ?points:Geometry.Point.t array ->
  t ->
  (int -> int -> bool) ->
  t

(** [filter_arcs t keep] is {!filter} deciding by arc index: arc [k]
    (the [k]-th entry of {!targets}) is kept when [keep k].  The kept
    set must be symmetric — arc [u -> v] kept iff arc [v -> u] is —
    and [keep] pure.  [points] weighs the kept arcs as in {!filter}. *)
val filter_arcs :
  ?pool:Pool.t -> ?points:Geometry.Point.t array -> t -> (int -> bool) -> t

val node_count : t -> int

(** Number of undirected edges (half the stored arc count). *)
val edge_count : t -> int

val degree : t -> int -> int

(** [offsets t] and [targets t] are the snapshot's own row arrays,
    shared, not copied: row [u] is [targets.(offsets.(u)) ..
    targets.(offsets.(u+1) - 1)], ascending.  For kernels that lay
    per-arc data out on the rows; callers must not mutate them. *)
val offsets : t -> int array

val targets : t -> int array

(** Whether Euclidean / power weights were precomputed.  A snapshot
    with no arcs has nothing to weigh and counts as weighted. *)
val has_weights : t -> bool

val has_power_weights : t -> bool

(** [iter_neighbors t u f] calls [f v] per neighbor, increasing order. *)
val iter_neighbors : t -> int -> (int -> unit) -> unit

(** [fold_neighbors t u f init] folds over neighbors in increasing
    order. *)
val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

(** Neighbor list (allocates; for tests and interop). *)
val neighbors : t -> int -> int list

(** [arc t u v] is the index of the arc [u -> v] (its slot in
    {!targets}), found by binary search in [u]'s row, or [-1] when [u]
    and [v] are not adjacent. *)
val arc : t -> int -> int -> int

(** [mem_edge t u v] tests adjacency by binary search in [u]'s row
    ([arc t u v >= 0] without the index). *)
val mem_edge : t -> int -> int -> bool

(** [iter_edges t f] calls [f u v] once per undirected edge with
    [u < v], in lexicographic order. *)
val iter_edges : t -> (int -> int -> unit) -> unit

(** [fold_edges t f init] folds over edges with [u < v],
    lexicographically. *)
val fold_edges : t -> ('a -> int -> int -> 'a) -> 'a -> 'a

(** All edges as [(u, v)] pairs with [u < v], lexicographically
    (allocates; for tests and interop). *)
val edges : t -> (int * int) list

(** Thaw back into the mutable representation — the adapter for
    consumers that still require a {!Graph.t}.  One copy of each row,
    O(n + m); the graph shares no array with the snapshot. *)
val to_graph : t -> Graph.t

(** {1 Traversals}

    The [_into] forms write into caller-owned scratch so a worker can
    run thousands of sources with zero steady-state allocation; the
    plain forms allocate fresh result arrays.  Distances match
    {!Traversal.bfs} / {!Traversal.dijkstra} bit for bit (unreachable:
    [max_int] / [infinity]). *)

(** [bfs_into t ~dist ~queue s]: hop distances from [s] into [dist]
    (length [n], fully overwritten); [queue] is an [n]-slot scratch
    FIFO. *)
val bfs_into : t -> dist:int array -> queue:int array -> int -> unit

val bfs : t -> int -> int array

(** Euclidean SSSP; requires weights.
    @raise Invalid_argument when the snapshot has no weights. *)
val dijkstra_into : t -> heap:Heap.t -> dist:float array -> int -> unit

(** [dijkstra_to t ~heap ~dist s d] is [dijkstra_into t ~heap ~dist s]
    stopped once [d] is settled: [dist.(d)] is exact (the same float),
    every other entry an upper bound.
    @raise Invalid_argument when the snapshot has no weights. *)
val dijkstra_to : t -> heap:Heap.t -> dist:float array -> int -> int -> unit

val dijkstra : t -> int -> float array

(** Power SSSP over the [dist^beta] arc costs; requires power
    weights.
    @raise Invalid_argument when the snapshot has no power weights. *)
val power_into : t -> heap:Heap.t -> dist:float array -> int -> unit

val power_sssp : t -> int -> float array

(** {1 Components} *)

(** Same labelling rule as {!Components.component_labels}: each node
    is labelled with the smallest node id of its component. *)
val component_labels : t -> int array

val is_connected : t -> bool

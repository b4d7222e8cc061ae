(** Undirected graphs over dense integer node ids [0 .. n-1], in
    compressed sparse row form: the library's one graph type.

    Every topology the library builds — the unit disk graph, the
    proximity baselines, the CDS backbone variants and the localized
    Delaunay structures — is a [Csr.t], sealed once and read-only
    after: two int arrays, per-node offsets and a flat, row-sorted
    neighbor array, so traversals touch contiguous memory and
    neighbor iteration allocates nothing.  Builders seal rows
    ({!of_rows}), filter a sealed graph ({!filter}, {!filter_arcs}) or
    collect an edge list ({!of_edges}).  Optionally the snapshot
    precomputes per-arc edge weights (Euclidean length, and the
    [|e|^beta] power cost), so Dijkstra relaxations stop recomputing
    [Point.dist] in the inner loop.

    Snapshots are immutable, so any number of domains may read one at
    once: the metrics engine runs one SSSP per source on a pool, each
    pass a tight loop over int/float arrays. *)

type t

(** [of_edges n edges] is the graph on [n] nodes with the given
    undirected edges, each row sorted: duplicates and reversed copies
    of an edge count once.  Without weights.
    @raise Invalid_argument on a negative [n], a self-loop or an
    out-of-range id. *)
val of_edges : int -> (int * int) list -> t

(** [equal a b] holds when both graphs have the same node count and
    the same rows, i.e. the same edge set; arc weights are not
    compared. *)
val equal : t -> t -> bool

(** [of_rows ~offsets ~targets ()] adopts pre-built CSR rows.
    [offsets] has length
    [n + 1] with [offsets.(0) = 0]; row [u] is
    [targets.(offsets.(u)) .. targets.(offsets.(u+1) - 1)] and must be
    strictly increasing (sorted, duplicate-free) with in-range,
    non-self targets.  Rows must be symmetric ([v] in row [u] iff [u]
    in row [v]); this is the caller's obligation — the cheap structural
    checks here do not verify it.  The arrays are adopted, not copied.
    With [points], each arc [u->v] additionally carries the Euclidean
    weight [Point.dist points.(u) points.(v)]; with [beta] (requires
    [points]) also the power weight [dist^beta].
    @raise Invalid_argument on malformed offsets or rows, when [beta]
    is given without [points], or when [points] is shorter than the
    node count. *)
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
    adds Euclidean arc weights, the same floats as {!of_rows}',
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

(** {1 Traversals}

    The [_into] forms write into caller-owned scratch so a worker can
    run thousands of sources with zero steady-state allocation; the
    plain forms allocate fresh result arrays.  Unreachable nodes get
    [max_int] (hops) or [infinity] (lengths). *)

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

(** [component_labels t] labels each node with the smallest node id
    of its connected component. *)
val component_labels : t -> int array

(** [is_connected t] holds when the whole graph is one component.
    The empty graph is connected. *)
val is_connected : t -> bool

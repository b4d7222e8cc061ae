(** Localized Delaunay triangulation (Algorithms 2 and 3).

    [LDel¹(G)] is the planar-izable proxy for the true Delaunay
    triangulation that each node can compute from 1-hop information:
    its edges are the Gabriel edges of [G] plus the edges of every
    triangle [uvw] whose circumcircle is empty of the 1-hop
    neighborhoods of all three corners (equivalently: [uvw] is a
    Delaunay triangle of [Del(N₁(x))] for each corner [x]) and whose
    edges all fit within the transmission radius.

    [LDel¹] can still contain crossing triangles from distant
    neighborhoods; Algorithm 3 removes, for every intersecting pair,
    any triangle whose circumcircle contains a corner of the other —
    the survivors plus the Gabriel edges form the planar graph
    [PLDel(G)] the paper routes on.

    {!build} is the centralized construction stage
    ({!Shard.pipeline} runs it per tile).  Each node computes only its own star in
    [Del(N(u))] with {!Delaunay.Star} (O(d log d), Bowyer–Watson on
    exact ties), and a triangle is accepted when it is consecutive in
    all three corners' links.  Accepted triangles that share a corner
    are triangles of that corner's one local triangulation, so
    Algorithm 3 skips them before any predicate.  The reference
    implementation is {!Protocol}, whose message-level rendition
    (full Bowyer–Watson per node, every box-overlapping pair without a
    shared corner tested) must produce identical output (asserted by
    the integration tests). *)

(** What {!build} computes, packed flat on the arcs of the graph it
    ran on: no lists, a byte per arc and per triangle plus three ints
    per triangle.  {!planar} seals PLDel from it. *)
type t = {
  gabriel : Bytes.t;
      (** one byte per arc of the input CSR (indexed like
          {!Netgraph.Csr.targets}): ['\001'] on the arc [u -> v] with
          [u < v] of each Gabriel edge, ['\000'] elsewhere (the arc
          [v -> u] included) *)
  tri : int array;
      (** the accepted triangles, three corner ids each: triangle [i]
          is [(tri.(3i), tri.(3i+1), tri.(3i+2))], ascending within the
          triple, triples in lexicographic order *)
  kept : Bytes.t;
      (** one byte per triangle of [tri]: ['\001'] when it survives
          planarization (Algorithm 3) *)
}

(** [build csr points ~radius] computes LDel¹ and PLDel of the
    graph [csr] (edges must join nodes at distance [<= radius]; nodes
    with no incident edge are simply isolated — this is how the
    construction runs on the induced backbone ICDS, whose vertex set
    is only the dominators and connectors): per-node Delaunay stars,
    min-corner-owned acceptance off the links, owner-side Gabriel
    flags, and a bucket-grid rendition of Algorithm 3 that only
    examines corner-disjoint triangle pairs whose bounding boxes can
    overlap.  With [owners] (tile partition of the node ids) and
    [pool] the stages fan out across the pool's domains; every node's
    results land in its own slots and are laid out in node order, so
    the output is bit-identical for any tiling and any job count.
    Spans [ldel.l1], [ldel.l2] and [ldel.planarize] cover the call.
    @raise Invalid_argument when two nodes of a neighbourhood
    coincide. *)
val build :
  ?pool:Netgraph.Pool.t ->
  ?owners:int array array ->
  Netgraph.Csr.t ->
  Geometry.Point.t array ->
  radius:float ->
  t

(** [build_k g points ~radius ~k] is the k-localized Delaunay graph
    [LDel^k]: triangles must have circumcircles empty of every
    corner's k-hop neighborhood.  Li et al. prove [LDel^k] is planar
    outright for [k >= 2] (Algorithm 3 then keeps every accepted
    triangle — the test-suite verifies this empirically); larger [k] trades
    communication for fewer crossings.  It runs {!build}'s stages
    with k-hop local neighborhoods (Gabriel edges and Algorithm 3 stay
    1-hop); [build_k ~k:1 = build].
    @raise Invalid_argument when [k < 1]. *)
val build_k :
  Netgraph.Csr.t -> Geometry.Point.t array -> radius:float -> k:int -> t

(** [planar csr t] is PLDel: the row filter of [csr] to the Gabriel
    edges of [t] and the edges of its kept triangles, where [csr] is
    the graph [t] was built on.  Every triangle edge must be an edge of
    [csr]: always so for {!build}, and for {!build_k} when [csr] links
    every pair within [radius] (a UDG, or the ICDS).  [pool] and
    [points] are {!Netgraph.Csr.filter_arcs}'s: the result is the same
    for any job count, and [points] adds Euclidean arc weights. *)
val planar :
  ?pool:Netgraph.Pool.t ->
  ?points:Geometry.Point.t array ->
  Netgraph.Csr.t ->
  t ->
  Netgraph.Csr.t

(** [local_delaunay_triangles g points u] is the set of triangles
    incident to [u] in [Del(N₁(u))] — what node [u] computes in
    Algorithm 2 — as normalized sorted triples. *)
val local_delaunay_triangles :
  Netgraph.Csr.t -> Geometry.Point.t array -> int -> (int * int * int) list

(** Same computation from a node's own view: its id, position, and
    1-hop neighbors with positions.  The distributed protocol calls
    this with exactly the data its messages carry, so protocol and
    centralized builds coincide by construction. *)
val local_triangles_of_neighborhood :
  me:int ->
  me_pos:Geometry.Point.t ->
  nbrs:(int * Geometry.Point.t) list ->
  (int * int * int) list

(** [triangle_fits points ~radius t] checks all three links fit the
    transmission range. *)
val triangle_fits :
  Geometry.Point.t array -> radius:float -> int * int * int -> bool

(** [circumcircle_contains points t v] holds when node [v] (not a
    corner) lies strictly inside [t]'s circumcircle. *)
val circumcircle_contains :
  Geometry.Point.t array -> int * int * int -> int -> bool

(** [circumcircle_contains_corner points t other] holds when a corner
    of [other] lies strictly inside [t]'s circumcircle — Algorithm 3's
    reason to remove [t] when it intersects [other]. *)
val circumcircle_contains_corner :
  Geometry.Point.t array -> int * int * int -> int * int * int -> bool

(** [triangle_bbox points t] is the bounding box of [t]'s corners.
    Two triangles whose boxes do not {!Geometry.Bbox.overlaps} cannot
    intersect in the sense of {!triangles_intersect}, so both
    planarizations ({!build} and {!Protocol}) test boxes first. *)
val triangle_bbox : Geometry.Point.t array -> int * int * int -> Geometry.Bbox.t

(** [triangles_intersect points t1 t2] decides whether two triangles
    overlap improperly: an edge of one properly crosses an edge of the
    other, or a non-shared corner lies strictly inside the other
    triangle.  Triangles merely sharing a vertex or an edge do not
    intersect.  Edges that share an endpoint id are rejected without a
    predicate (one of their orientations is exactly collinear), and the
    test allocates nothing. *)
val triangles_intersect :
  Geometry.Point.t array -> int * int * int -> int * int * int -> bool

(** [shares_corner a1 b1 c1 a2 b2 c2] holds when triangles [a1 b1 c1]
    and [a2 b2 c2] have a corner id in common.  Both planarizations
    ({!build} and {!Protocol}'s removal round) skip such pairs of
    accepted triangles before any predicate: each is a triangle of the
    local Delaunay triangulation of the shared corner, so the two do
    not intersect (test_ldel asserts it). *)
val shares_corner : int -> int -> int -> int -> int -> int -> bool

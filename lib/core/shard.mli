(** Sharded, CSR-native construction: the library's one
    implementation of the paper's backbone build.

    The deployment square is cut into grid tiles of side at least the
    transmission radius; each tile's node bucket is an {e ownership
    set}, and every stage — UDG, MIS clustering, connector elections,
    localized Delaunay — runs per-tile against the immutable CSR
    snapshot of the previous stage.  Per-tile results are stitched
    with deterministic sorted merges (smallest-ID tie-breaks are
    decided by the owning tile), so the outputs are {b bit-identical}
    for any tile count and any job count; one tile is the serial
    build.  No stage touches a mutable Hashtbl graph; every
    intermediate and output is a sealed {!Netgraph.Csr} snapshot.

    The reference implementation is {!Protocol}: the distributed
    message-passing rendition of the same rules, which must produce
    the same roles, connector edges and planar backbone.

    See DESIGN.md §10 for the tile/halo geometry and the 2-locality
    argument behind per-tile ownership. *)

(** Everything the pipeline produces, each structure once.  The CSR
    fields are sealed: [cds]/[icds] span the backbone nodes only,
    [icds'] adds the dominatee→dominator links, [pldel] is LDel(ICDS)
    after Algorithm 3 (sealed with Euclidean arc weights) and [pldel']
    its {!primed} variant, which is not planar: its links cross
    backbone edges.  [cds] is the CSR the connector elections
    sealed ({!Connectors.find}).  CDS′ is not kept: it is
    [primed s.roles s.icds' s.cds], computed when a caller asks. *)
type snapshot = {
  points : Geometry.Point.t array;
  radius : float;
  owners : int array array;  (** tile ownership sets, ascending ids *)
  udg : Netgraph.Csr.t;
  roles : Mis.role array;
  backbone : bool array;  (** dominator or connector *)
  cds : Netgraph.Csr.t;
  icds : Netgraph.Csr.t;
  icds' : Netgraph.Csr.t;
  pldel : Netgraph.Csr.t;
  pldel' : Netgraph.Csr.t;
}

(** [primed roles icds' base] is [base] plus the dominatee–dominator
    links under [roles]: the row filter of [icds'] to the edges of
    [base] and the edges whose ends differ in being a dominator.
    [base] must lie in [icds'] (the CDS and PLDel(ICDS) do), so
    [primed s.roles s.icds' s.cds] is CDS′ and [primed s.roles s.icds'
    s.pldel] is the snapshot's [pldel'].  Any supergraph of the
    dominatee links and [base] gives the same result in place of
    [icds']: the UDG does, for a CDS some other connector selection
    installed.  [pool] and [points] are
    {!Netgraph.Csr.filter}'s: the result is the same for any job
    count, and [points] adds Euclidean arc weights. *)
val primed :
  ?pool:Netgraph.Pool.t ->
  ?points:Geometry.Point.t array ->
  Mis.role array ->
  Netgraph.Csr.t ->
  Netgraph.Csr.t ->
  Netgraph.Csr.t

(** [tiling points ~radius] is the tile partition of the node ids:
    grid buckets of square tiles whose side is (a hair over)
    [max radius (side / tiles)] — [tiles] per axis (default: targets
    ~4k nodes per tile), clamped so a tile is never narrower than the
    radius; [tiles = 1] is a single tile.  Every node appears in exactly one
    tile, ascending ids within a tile.
    @raise Invalid_argument when [radius <= 0] or [tiles < 1]. *)
val tiling :
  ?tiles:int -> Geometry.Point.t array -> radius:float -> int array array

(** [pipeline points ~radius] runs the full sharded chain
    (UDG → MIS → connectors → LDel(ICDS) → assembly) and seals every
    structure.  [tiles] overrides the per-axis tile count ([tiles = 1]
    is the serial build).  When the tiling has more than one tile and
    [jobs] (default 1) is above 1, the per-tile stages fan out on a
    {!Netgraph.Pool} of [jobs] domains opened for the call; otherwise
    everything runs on the caller's domain.  [priority] is the MIS
    priority as in {!Mis.compute}.  [udg] substitutes a pre-built
    snapshot for the UDG stage (the quasi-UDG robustness path — its
    RNG sequence is inherently serial).  After the elections the UDG
    is read once, by the [icds'] row filter; [icds] and [pldel'] are
    row filters of [icds'], and [pldel] is the filter of [icds] to the
    arcs LDel marks.  LDel's packed parts do not outlive the build.
    This is the one assembly of the CDS family: the lemma tests,
    broadcast and the bench ablations all read this snapshot.  Stage
    timings land in the [shard.*] spans, which cover the whole build:
    [shard.connectors] has the children [connectors.index],
    [connectors.elect] and [connectors.seal] (the CDS is sealed
    there), [shard.ldel] the children [ldel.icds'], [ldel.icds],
    [ldel.l1], [ldel.l2] and [ldel.planarize], and [shard.assemble]
    one child per structure it seals: [assemble.pldel] and
    [assemble.pldel']; tile count and populations in the
    [shard.tiles] gauge / [shard.tile_pop] distribution.
    @raise Invalid_argument when [radius <= 0], [tiles < 1], or [udg]
    disagrees with [points] on the node count. *)
val pipeline :
  ?jobs:int ->
  ?tiles:int ->
  ?priority:(int -> int) ->
  ?udg:Netgraph.Csr.t ->
  Geometry.Point.t array ->
  radius:float ->
  snapshot

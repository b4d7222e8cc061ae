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

(** Everything the pipeline produces.  The CSR fields are the sealed
    forms of the [Backbone.t]/[Cds.t] graphs: [cds]/[icds] span the
    backbone nodes only, the primed variants add dominatee→dominator
    links, [pldel] is the planar LDel(ICDS) backbone (sealed with
    Euclidean arc weights), [pldel'] its primed variant.
    [connectors] is the elections' sealed outcome; [cds] is its
    [Connectors.cds], the CSR the elections sealed, shared.  Its list
    form is {!Connectors.to_result}.  [ldel] is LDel(ICDS) packed on
    the arcs of [icds] (Gabriel flags, the flat triangle array, the
    kept flags); its list form is [Ldel.to_parts icds ldel]. *)
type snapshot = {
  points : Geometry.Point.t array;
  radius : float;
  owners : int array array;  (** tile ownership sets, ascending ids *)
  udg : Netgraph.Csr.t;
  roles : Mis.role array;
  connectors : Connectors.t;
  ldel : Ldel.csr_parts;  (** packed on the arcs of [icds] *)
  backbone : bool array;
  cds : Netgraph.Csr.t;
  cds' : Netgraph.Csr.t;
  icds : Netgraph.Csr.t;
  icds' : Netgraph.Csr.t;
  pldel : Netgraph.Csr.t;
  pldel' : Netgraph.Csr.t;
}

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
    priority as in {!Mis.compute_csr}.  [udg] substitutes a pre-built
    snapshot for the UDG stage (the quasi-UDG robustness path — its
    RNG sequence is inherently serial).  After the elections the UDG
    is read once, by the [icds'] row filter; [icds], [cds'] and
    [pldel'] are row filters of [icds'], and [pldel] is the filter of
    [icds] to the arcs LDel marks.  Stage timings land in the
    [shard.*] spans, which cover the whole build: [shard.connectors]
    has the children [connectors.index], [connectors.elect] and
    [connectors.seal] (the CDS is sealed there), [shard.ldel] the
    children [ldel.icds'], [ldel.icds], [ldel.l1], [ldel.l2] and
    [ldel.planarize], and [shard.assemble] one child per structure it
    seals: [assemble.cds'], [assemble.pldel] and [assemble.pldel'];
    tile count and populations in the [shard.tiles]
    gauge / [shard.tile_pop] distribution.
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

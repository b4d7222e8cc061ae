(** The full spanner pipeline: deployment → UDG → clustering →
    connectors → CDS family → localized Delaunay planarization.

    [run] computes every structure the paper evaluates, over one node
    deployment, driven by a {!Config.t}.  This is the library's front
    door: examples, the CLI, the benchmarks and the experiment sweeps
    all consume this record.  There is one construction path: the
    sharded CSR pipeline ({!Shard.pipeline}); [run] is {!snapshot}
    plus a thaw of two of its CSRs into mutable graphs.  The CDS
    family the lemmas speak of is read off the snapshot: CDS, ICDS
    and ICDS′ are its fields and CDS′ is {!Shard.primed} of its CDS;
    no second assembly exists.  The reference
    implementation is {!Protocol}, the distributed rendition of the
    same stages, which must agree with the snapshot on roles,
    connector edges and the planar backbone. *)

(** The snapshot, each structure once, plus two thawed copies. *)
type t = {
  snap : Shard.snapshot;  (** every structure, sealed *)
  jobs : int;
      (** worker-domain budget carried from the config — the default
          parallelism for metrics computed on this instance *)
  udg : Netgraph.Graph.t;  (** [snap.udg], thawed *)
  ldel_icds_g : Netgraph.Graph.t;
      (** PLDel(ICDS), the planar backbone: [snap.pldel], thawed *)
}

(** Pipeline configuration — one record instead of a growing pile of
    optional arguments. *)
module Config : sig
  (** The radio model: an ideal unit disk of radius [Config.radius],
      or a quasi unit disk whose links between [r_min] and the radius
      survive with distance-proportional probability (drawn from a
      dedicated RNG seeded by [seed], so a config is reproducible). *)
  type radio = Disk | Quasi of { r_min : float; seed : int64 }

  (** How the deployment is tiled for the build ({!Shard.tiling}).
      [Tiles k] uses [k] tiles per axis — [Tiles 1] is the serial
      build; [Auto] is the shard default (about 4k nodes per tile, so
      one tile below ~9k nodes).  Every tiling produces bit-identical
      structures. *)
  type partition = Auto | Tiles of int

  type t = {
    radius : float;  (** transmission radius, shared by all nodes *)
    priority : (int -> int) option;
        (** clustering order override (smaller wins; default the node
            id, the paper's smallest-ID rule — see {!Mis.compute_csr}) *)
    radio : radio;
    sink : Obs.sink option;
        (** when set, {!run} enables the observability layer for the
            duration of the build and emits a snapshot of the global
            obs state afterwards; call [Obs.reset] first for numbers
            isolated to one run *)
    jobs : int;
        (** worker domains (see {!Netgraph.Pool}) — used by the build
            when the tiling has more than one tile, and as the default
            parallelism for metrics over this instance *)
    partition : partition;
  }

  (** radius 60, smallest-ID clustering, ideal disk, no sink,
      [jobs = Netgraph.Pool.default_jobs ()], [partition = Auto]. *)
  val default : t
end

(** [run cfg points] runs the whole pipeline: {!snapshot}, then a thaw
    of [snap.udg] and [snap.pldel] into the mutable graphs of {!t}.
    The UDG need not be connected, but the spanner guarantees only
    hold per component.  Stage timings are charged to obs spans
    [backbone/shard/shard.udg], [.../shard.mis],
    [.../shard.connectors], [.../shard.ldel] and [.../shard.assemble],
    plus [backbone/thaw] for the two graphs.  For million-node
    instances prefer {!snapshot}, which skips the thaw entirely. *)
val run : Config.t -> Geometry.Point.t array -> t

(** [snapshot cfg points] runs the sharded CSR-native pipeline
    ({!Shard.pipeline}) under [cfg] — partition, jobs, radio, priority
    and sink are honored — and returns the sealed snapshot without
    ever materializing a mutable graph.  This is the front door for
    million-node instances. *)
val snapshot : Config.t -> Geometry.Point.t array -> Shard.snapshot

(** [build points ~radius] is
    [run { Config.default with radius; priority }] — the historical
    front door, kept so existing callers compile.  New code should
    construct a {!Config.t} and call {!run} (or {!snapshot} at
    scale). *)
val build :
  ?priority:(int -> int) -> Geometry.Point.t array -> radius:float -> t

(** [ldel_full t] lazily computes LDel/PLDel over the whole UDG — the
    "LDel" baseline row of Table I (not part of the backbone
    pipeline, so it is not built eagerly). *)
val ldel_full : t -> Ldel.t

(** {1 Structure registry}

    The named graphs the evaluation reports on, in Table I order: UDG,
    RNG, GG, LDel(V), CDS, CDS′, ICDS, ICDS′, LDel(ICDS), LDel(ICDS′).
    [`Spans_all] says whether the structure connects all nodes (only
    then are stretch factors defined).  The registry is the single
    source of that list: the CLI, the experiment sweeps and the bench
    harness all consume it rather than maintaining their own copies.
    The backbone rows are views of the snapshot's CSRs; CDS′ is
    {!Shard.primed} of the CDS, filtered when its view is asked for.
    The baseline rows RNG, GG and LDel(V) are computed on the thawed
    UDG. *)

type scope = [ `Spans_all | `Backbone_only ]

val registry : (string * (t -> Netgraph.View.t) * scope) list

(** Registry names, in Table I order. *)
val names : string list

(** [structures t] materializes the whole registry on one instance. *)
val structures : t -> (string * Netgraph.View.t * scope) list

(** The six backbone-family rows (CDS … LDel(ICDS′)) — Figure 8's
    structures. *)
val backbone_structures : t -> (string * Netgraph.View.t * scope) list

(** The spanning backbone rows (CDS′, ICDS′, LDel(ICDS′)) — the
    structures whose stretch Figures 9 and 11 track — each thawed into
    a mutable graph on the call. *)
val spanning_backbone_structures :
  t -> (string * Netgraph.Graph.t * scope) list

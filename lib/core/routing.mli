(** Localized geographic routing on the constructed topologies.

    The backbone exists to be routed on: the paper pairs it with
    Dominating-Set-Based Routing and with Greedy Perimeter Stateless
    Routing (GPSR), which needs the planar [LDel(ICDS)] for its
    perimeter mode.  Everything here is stateless per-packet routing
    from purely local information (positions of self, neighbors and
    the destination), as in the protocols the paper cites.

    All routers return the traversed node path (inclusive of both
    endpoints), or [None] when the packet is dropped; a kernel leaves
    the reason in its scratch ({!drop_reasons}).

    Every router is one [_into] kernel routing into a caller-owned
    {!Scratch.t} with no per-query allocation on the steady path (the
    serve engine's form), plus one list wrapper of the plain name
    that runs the kernel on a fresh scratch and records the
    [routing.<name>.routes/delivered] counters.  Both read the
    topology as a {!Netgraph.View.t}: wrap a mutable graph with
    [View.of_graph] or a sealed snapshot with [View.of_csr] once, and
    the routes are bit-identical either way.

    Node-id handling is uniform: [src = dst] delivers the trivial
    path [[src]] (hop count 0), and an out-of-range [src] or [dst]
    drops the query ([None] / [-1]) instead of raising. *)

(** Reusable per-query state: an epoch-stamped visited mark array
    (bumping the stamp retires every mark in O(1) — no per-query
    Hashtbl), a growable path buffer, float registers and the
    neighbor-scan closures, all allocated once and reused across
    queries.  A scratch is single-domain state: share one per worker,
    never across workers. *)
module Scratch : sig
  type t

  (** [create ~n ()] pre-sizes the visited marks for [n]-node graphs;
      every buffer still grows on demand, so any scratch serves any
      graph. *)
  val create : ?n:int -> unit -> t

  (** The last delivered path lives in [path t].(0 .. path_len t - 1)
      (src and dst inclusive); [path_len] is [0] after a drop.  The
      array is borrowed — read it before the next query, never write
      it. *)
  val path : t -> int array

  val path_len : t -> int

  (** Allocating copy of the last delivered path. *)
  val path_list : t -> int list

  (** Why the last query dropped, as an index into {!drop_reasons};
      [-1] after a delivery. *)
  val drop : t -> int
end

(** The drop reasons, indexed by {!Scratch.drop}:
    - ["local_minimum"]: no neighbor qualifies — greedy or MFR/NFP
      without progress, or a node with no edge to leave by;
    - ["face_loop"]: GFG's perimeter walk came back to the first edge
      of its face without crossing closer, so [dst] is unreachable
      from [src] in the graph;
    - ["revisit"]: compass, MFR or NFP came back to a node;
    - ["step_cap"]: the step budget (4 · edges + 16) ran out;
    - ["out_of_range"]: [src] or [dst] is not a node id. *)
val drop_reasons : string array

(** The [_into] kernels: route and leave the path in the scratch,
    returning the hop count ([>= 0], with [0] for [src = dst]) or
    [-1] when the packet is dropped (including out-of-range ids).
    None allocates on the steady path, perimeter hops included (only
    a growing path buffer and the exact fallback of
    {!Geometry.Predicates.orient2d} do).  Unlike the
    list wrappers they record no per-route obs metrics (the serve
    engine aggregates its own), with one exception: the
    [routing.gfg.steps] counter, which counts forwarding decisions
    exactly as the historical implementation did. *)

val greedy_into :
  Scratch.t -> Netgraph.View.t -> Geometry.Point.t array ->
  src:int -> dst:int -> int

val compass_into :
  Scratch.t -> Netgraph.View.t -> Geometry.Point.t array ->
  src:int -> dst:int -> int

val mfr_into :
  Scratch.t -> Netgraph.View.t -> Geometry.Point.t array ->
  src:int -> dst:int -> int

val nfp_into :
  Scratch.t -> Netgraph.View.t -> Geometry.Point.t array ->
  src:int -> dst:int -> int

val gfg_into :
  Scratch.t -> Netgraph.View.t -> Geometry.Point.t array ->
  src:int -> dst:int -> int

(** [greedy g points ~src ~dst] forwards to the neighbor strictly
    closest to the destination; fails at a local minimum. *)
val greedy :
  Netgraph.View.t -> Geometry.Point.t array -> src:int -> dst:int ->
  int list option

(** [compass g points ~src ~dst] forwards to the neighbor whose
    direction is angularly closest to the destination's (Kranakis et
    al.); unlike greedy it can loop, so traversal is cycle-guarded
    and returns [None] on a revisit. *)
val compass :
  Netgraph.View.t -> Geometry.Point.t array -> src:int -> dst:int ->
  int list option

(** [mfr g points ~src ~dst] is Most Forward within Radius
    (Takagi–Kleinrock): forward to the neighbor with the largest
    progress — the projection of the step onto the line toward the
    destination; fails when no neighbor makes positive progress. *)
val mfr :
  Netgraph.View.t -> Geometry.Point.t array -> src:int -> dst:int ->
  int list option

(** [nfp g points ~src ~dst] is Nearest with Forward Progress (Hou &
    Li): the closest neighbor that still makes positive progress —
    the power-friendly variant. *)
val nfp :
  Netgraph.View.t -> Geometry.Point.t array -> src:int -> dst:int ->
  int list option

(** [gfg g points ~src ~dst] is greedy routing with face-routing
    recovery (GPSR's perimeter mode: right-hand rule plus the
    cross-the-[sd]-line face changes).  Delivery is guaranteed when
    [g] is planar and [src], [dst] are in the same component. *)
val gfg :
  Netgraph.View.t -> Geometry.Point.t array -> src:int -> dst:int ->
  int list option

(** The GFG packet header: greedy mode, or perimeter mode with the
    face-traversal state GPSR carries in its packets. *)
type perimeter = {
  p_entry : Geometry.Point.t;
  p_entry_dist : float;
  p_best_cross : float;
  p_start : int * int;
  p_first : bool;
}

type header = Greedy | Perimeter of perimeter * int

type decision = Deliver | Forward of int * header | Drop

(** [gfg_step g points ~dst u header] is one forwarding decision at
    node [u], from purely local information (u's neighbors and the
    header).  {!gfg} is the fold of this step; {!Packetsim} runs the
    same step inside the message-passing simulator, so path-level and
    packet-level GPSR agree exactly (tested).  It charges no counter:
    a caller running it as GPSR charges [routing.gfg.steps] once per
    decision, as {!gfg_into} does. *)
val gfg_step :
  Netgraph.View.t ->
  Geometry.Point.t array ->
  dst:int ->
  int ->
  header ->
  decision

(** [gateway ~udg ~roles ~backbone u] is where [u] enters the
    backbone: [u] itself when [backbone.(u)], otherwise its smallest-id
    dominator under [roles], the first dominator in its ascending
    [udg] row.  The one gateway rule: {!hierarchical_into} and
    {!Energy} both route through it.
    @raise Invalid_argument when [u] is off the backbone and has no
    dominator. *)
val gateway :
  udg:Netgraph.Csr.t ->
  roles:Mis.role array ->
  backbone:bool array ->
  int ->
  int

(** [hierarchical_into sc snap ~udg ~pldel ~src ~dst] is GPSR's
    split (Karp and Kung) on the paper's backbone, the route the serve
    engine answers [gfg] and [stretch] queries with.  [udg] and
    [pldel] are views of [snap.udg] and [snap.pldel], made once by the
    caller.

    - Greedy over the full UDG rows while some neighbor is strictly
      closer to [dst]; a [dst] adjacent in the UDG is one direct hop.
    - At a local minimum [u]: [u] → its gateway → {!gfg_into} over the
      planar PLDel(ICDS) → [dst]'s gateway → [dst].  A backbone node is
      its own gateway; a dominatee's is its smallest-id dominator.

    The scratch holds the whole walked path, every step a UDG edge.
    Delivery is guaranteed when the UDG is connected, since PLDel(ICDS)
    is then planar and connects the backbone; the hop count has no
    constant-factor bound, as GFG's has none.
    @raise Invalid_argument when a non-backbone node on the recovery
    path has no dominator (not a snapshot the pipeline built). *)
val hierarchical_into :
  Scratch.t ->
  Shard.snapshot ->
  udg:Netgraph.View.t ->
  pldel:Netgraph.View.t ->
  src:int ->
  dst:int ->
  int

(** [hierarchical snap ~src ~dst] is {!hierarchical_into}'s list
    wrapper, on a fresh scratch and fresh views of the snapshot. *)
val hierarchical : Shard.snapshot -> src:int -> dst:int -> int list option

(** Success statistics of a router over every connected node pair:
    delivery ratio, and average stretch of delivered routes relative
    to the UDG shortest path (length and hops). *)
type evaluation = {
  pairs : int;
  delivered : int;
  avg_length_stretch : float;  (** over delivered pairs *)
  avg_hop_stretch : float;
}

(** [evaluate ~router ~base points ~pairs rng] samples [pairs] random
    connected node pairs in [base] and runs [router] on each.  A view
    with fewer than two nodes has no pair: the result is all zeros and
    [rng] is not drawn from. *)
val evaluate :
  router:(src:int -> dst:int -> int list option) ->
  base:Netgraph.View.t ->
  Geometry.Point.t array ->
  pairs:int ->
  Wireless.Rand.t ->
  evaluation

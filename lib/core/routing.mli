(** Localized geographic routing on the constructed topologies.

    The backbone exists to be routed on: the paper pairs it with
    Dominating-Set-Based Routing and with Greedy Perimeter Stateless
    Routing (GPSR), which needs the planar [LDel(ICDS)] for its
    perimeter mode.  Everything here is stateless per-packet routing
    from purely local information (positions of self, neighbors and
    the destination), as in the protocols the paper cites.

    All routers return the traversed node path (inclusive of both
    endpoints), or [None] when the packet is dropped (greedy local
    minimum with no recovery, or a step budget exhausted).

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
end

(** The [_into] kernels: route and leave the path in the scratch,
    returning the hop count ([>= 0], with [0] for [src = dst]) or
    [-1] when the packet is dropped (including out-of-range ids).
    Unlike the list wrappers they record no per-route obs metrics
    (the serve engine aggregates its own), with one exception: the
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

(** [hierarchical snap ~src ~dst] is dominating-set-based routing:
    a direct hop when the nodes are adjacent in [snap.udg], otherwise
    src → its smallest-id dominator → GFG over the planar backbone
    [snap.pldel] (LDel(ICDS)) → dst's dominator → dst.  A backbone
    node is its own gateway.  It reads only the snapshot and follows
    the node-id contract above. *)
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

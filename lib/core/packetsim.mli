(** Packet-level routing on the message-passing simulator.

    {!Routing} computes paths; this module actually ships packets:
    every forwarding decision is made by the current holder inside
    {!Distsim.Engine}, from its own neighbor table and the packet
    header, one transmission per hop.  Because the GPSR forwarding
    logic is the same {!Routing.gfg_step} automaton, the traversed
    path equals the centrally computed route exactly (tested) — this
    is the "run GPSR on the planar backbone" deployment the paper
    describes, with the simulator counting every radio transmission.

    Unicast over an omni-directional radio is modeled as a broadcast
    carrying the intended next hop; neighbors that are not named
    discard the packet but still physically received it, which is why
    transmissions — not receptions — are the cost metric. *)

type result = {
  delivered : bool;
  path : int list;  (** nodes that held the packet, in order *)
  transmissions : int;  (** one per forwarding hop *)
  rounds : int;  (** simulator rounds until quiescence *)
}

(** [gpsr g points ~src ~dst] ships one packet with greedy + perimeter
    forwarding over [g] (planar for the delivery guarantee).  Returns
    the observed trajectory. *)
val gpsr :
  Netgraph.Graph.t -> Geometry.Point.t array -> src:int -> dst:int -> result

(** [greedy g points ~src ~dst] ships one packet with plain greedy
    forwarding: the same automaton, dropping where GPSR would enter
    perimeter mode (at local minima). *)
val greedy :
  Netgraph.Graph.t -> Geometry.Point.t array -> src:int -> dst:int -> result

(** [many g points ~pairs rng ~router] ships packets for [pairs]
    random source/destination pairs in one shared simulation-per-pair
    and aggregates delivery and cost — the workload view of routing
    overhead.  [router] selects the forwarding discipline.  A graph
    of fewer than two nodes has no pair to send: the result is
    [(0, 0, 0.)]. *)
val many :
  Netgraph.Graph.t ->
  Geometry.Point.t array ->
  pairs:int ->
  Wireless.Rand.t ->
  router:[ `Gpsr | `Greedy ] ->
  int * int * float
(** returns (delivered, pairs, average transmissions per delivered packet) *)

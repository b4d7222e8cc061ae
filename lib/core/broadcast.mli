(** Network-wide broadcast — the paper's motivating application.

    Section I motivates the backbone with the cost of flooding: "the
    simplest routing method is to flood the message, which not only
    wastes the rare resources of wireless nodes, but also diminishes
    the throughput of the network".  This module runs both options as
    actual protocols on the message-passing simulator and counts
    transmissions:

    - {b blind flooding}: every node retransmits the first copy it
      hears — n transmissions, always;
    - {b backbone broadcast}: only dominators and connectors
      retransmit; dominatees just listen.  Every node is adjacent to a
      dominator, so coverage is preserved while transmissions drop to
      the backbone size (a constant fraction independent of density);
    - {b RNG-relay}: the neighbor-elimination style of the cited RNG
      broadcasting work — a node retransmits only if some RNG-neighbor
      would otherwise miss the packet (approximated by: retransmit iff
      it has an RNG neighbor from which it did not hear the packet). *)

type outcome = {
  reached : bool array;  (** per node: heard the packet *)
  transmissions : int;  (** total sends, the energy cost *)
  rounds : int;  (** latency in synchronous rounds *)
}

(** Fraction of nodes reached. *)
val coverage : outcome -> float

(** [flood udg ~source] — blind flooding. *)
val flood : Netgraph.Graph.t -> source:int -> outcome

(** [backbone_broadcast udg ~backbone ~source] — only the nodes
    flagged in [backbone] (a snapshot's [backbone], dominators and
    connectors) and the source itself relay. *)
val backbone_broadcast :
  Netgraph.Graph.t -> backbone:bool array -> source:int -> outcome

(** [rng_relay udg points ~source] — neighbor-elimination relay on
    the relative neighborhood graph. *)
val rng_relay :
  Netgraph.Graph.t -> Geometry.Point.t array -> source:int -> outcome

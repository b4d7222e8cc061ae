(** Distributed, message-counted construction of the backbone.

    Every structure the centralized pipeline computes is rebuilt here
    as an actual message-passing protocol on the {!Distsim.Engine}:

    + {b clustering} — [Hello] (position/ID announcement), then the
      smallest-ID rule with [IamDominator] / [IamDominatee];
    + {b connectors} — Algorithm 1's [TryConnector] / [IamConnector]
      elections for two-hop pairs and for the first/second legs of
      three-hop pairs;
    + {b status} — the single per-node broadcast from which neighbors
      derive the induced backbone ICDS;
    + {b localized Delaunay} — Algorithm 2's [Proposal] / [Accept] /
      [Reject] handshake followed by Algorithm 3's two rounds of
      triangle gossip and the circumcircle removal rule.

    The protocol output is checked (in the test-suite) to be
    *identical* to the centralized {!Backbone.build}; the per-node
    transmission counters are the paper's communication-cost metric
    (Figures 10 and 12). *)

type position = Single | First | Second

type msg =
  | Hello of Geometry.Point.t
  | IamDominator
  | IamDominatee of int  (** my dominator's id *)
  | TwoHopDoms of int list
      (** a dominator's announcement of the two-hop dominators already
          joined to it by a common dominatee; its dominatees use it to
          skip redundant three-hop elections *)
  | TryConnector of (int * int) * position
      (** candidate for the dominator pair; [Single] pairs are
          unordered (u < v), [First]/[Second] pairs are ordered *)
  | IamConnector of (int * int) * position
  | Status of bool  (** "I am a backbone node" *)
  | Proposal of (int * int * int)
  | Accept of (int * int * int)
  | Reject of (int * int * int)
  | ShareTriangles of (int * int * int) list * (int * int) list
      (** my accepted incident triangles and incident Gabriel edges *)
  | RemainingTriangles of (int * int * int) list
  | NeighborTable of (int * Geometry.Point.t) list
      (** LDel² variant: my backbone neighbor table, broadcast once so
          every backbone node assembles its 2-hop view *)

(** Message kind name, for per-kind statistics. *)
val classify : msg -> string

(** The message-passing phases of {!run} in execution order
    ([["cluster"; "connectors"; "status"; "ldel"]]).  Each is also the
    {!Obs.span} name under ["protocol"], so trace events recorded
    during phase [p] carry the phase label ["protocol/" ^ p]. *)
val phases : string list

type result = {
  roles : Mis.role array;
  connector : bool array;
  cds_edges : (int * int) list;  (** with [u < v], sorted *)
  icds_edges : (int * int) list;
  ldel_triangles : (int * int * int) list;  (** accepted LDel¹ triangles *)
  kept_triangles : (int * int * int) list;  (** after planarization *)
  gabriel_edges : (int * int) list;  (** of ICDS *)
  ldel_graph : Netgraph.Csr.t;  (** distributed PLDel(ICDS) *)
  stats_cluster : Distsim.Engine.stats;
  stats_connector : Distsim.Engine.stats;
  stats_status : Distsim.Engine.stats;
  stats_ldel : Distsim.Engine.stats;
}

(** Communication cost of building CDS: clustering + connectors. *)
val cds_stats : result -> Distsim.Engine.stats

(** Communication cost of ICDS: CDS plus the status broadcast. *)
val icds_stats : result -> Distsim.Engine.stats

(** Communication cost of LDel(ICDS): everything. *)
val ldel_stats : result -> Distsim.Engine.stats

(** [run points ~radius] executes the full protocol stack on the unit
    disk graph of [points], built once as a CSR snapshot
    ({!Wireless.Udg.build}) that every phase's engine run reads.
    @raise Invalid_argument when [radius <= 0], or beyond [2^20] nodes:
    the protocol tables pack node ids into 20 bits. *)
val run : Geometry.Point.t array -> radius:float -> result


(** Output of the LDel² pipeline variant. *)
type ldel2_result = {
  l2_triangles : (int * int * int) list;
  l2_gabriel_edges : (int * int) list;
  l2_graph : Netgraph.Csr.t;
  l2_stats : Distsim.Engine.stats;  (** the LDel² phase only *)
}

(** [run_ldel2 points ~radius] is the alternative pipeline: identical
    clustering/connectors/status phases, then the {b 2-hop} localized
    Delaunay — one [NeighborTable] broadcast per node replaces
    Algorithm 3's two triangle-gossip rounds because LDel² is planar
    outright.  The result equals the centralized
    [Ldel.build_k ~k:2] over ICDS (tested).  Raises as {!run}. *)
val run_ldel2 : Geometry.Point.t array -> radius:float -> ldel2_result

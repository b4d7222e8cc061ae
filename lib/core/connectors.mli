(** Algorithm 1 — Finding Connectors.

    Dominators form an independent set, so they cannot talk to each
    other directly; connectivity is restored by electing dominatee
    nodes as connectors (gateways) between every pair of dominators
    that are two or three hops apart in the UDG.

    The election rule is the paper's local-minimum rule: every
    candidate announces itself with a [TryConnector] message, and a
    candidate becomes a connector exactly when its ID is the smallest
    among the candidates it can hear (itself included).  Two elected
    connectors for the same pair are therefore never adjacent — this
    bounds the number of connectors per pair (at most 2 for two-hop
    pairs, Lemma: the lune argument) without requiring a global
    leader.

    This module is the centralized construction stage
    ({!Shard.pipeline} runs it per tile).  The reference
    implementation is {!Protocol}, which runs the elections as
    [TryConnector] message exchanges and must install the identical
    backbone edges. *)

(** An election outcome.  The elections record no dominator pairs:
    the installed edges are the whole output. *)
type t = {
  connector : bool array;  (** elected as connector for some pair *)
  cds : Netgraph.Csr.t;
      (** the backbone edges: dominator–connector and
          connector–connector links installed by the elections, sealed
          without weights *)
}

(** [find udg roles] runs the two elections of Algorithm 1 on the
    unit disk graph [udg] with the clustering [roles].  Every pair
    election is 2-local around one dominator of the pair (the smaller
    one for two-hop pairs, the first one for ordered three-hop pairs),
    so with [owners] (tile partition of the node ids) each pair is
    processed exactly once from its owner's tile; with [pool] the
    tiles fan out across its domains.  The
    elections mark the installed UDG arcs and the CDS is the row
    filter of [udg] to them, so the output is bit-identical for any
    tiling and any job count.  Spans [connectors.index] (the
    dominator index), [connectors.elect] and [connectors.seal] cover
    the call. *)
val find :
  ?pool:Netgraph.Pool.t ->
  ?owners:int array array ->
  Netgraph.Csr.t ->
  Mis.role array ->
  t

(** [candidates_two_hop g roles u v] is the candidate connector set
    for the dominator pair [(u, v)] at hop distance two: their common
    dominatee neighbors. *)
val candidates_two_hop :
  Netgraph.Csr.t -> Mis.role array -> int -> int -> int list

(** [elect g candidates] applies the local-minimum rule: a candidate
    wins when no other candidate it can hear in [g] has a smaller id.
    The winner set is never empty when [candidates] is non-empty, and
    no two winners are adjacent. *)
val elect : Netgraph.Csr.t -> int list -> int list

(** [find_alzoubi g roles] is the alternative connector selection the
    paper reviews (Alzoubi et al.): instead of candidate elections,
    the initiating dominator deterministically picks ONE path per
    ordered pair — the smallest-ID common dominatee for two-hop
    pairs, and the smallest-ID dominatee with a two-hop view of the
    target (which then picks the smallest-ID bridge) for three-hop
    pairs.  Produces a leaner CDS (at most one path per direction)
    with the same connectivity guarantee; the benchmark harness
    compares both. *)
val find_alzoubi : Netgraph.Csr.t -> Mis.role array -> t

(** [find_baker g roles] is the Baker–Ephremides linked-cluster
    gateway selection the paper reviews: for {e overlapping} clusters
    (heads sharing a dominatee) the {b highest}-ID node in the
    intersection becomes the gateway; for {e nonoverlapping} adjacent
    clusters the dominatee pair with the largest ID sum (ties to the
    pair containing the highest node) becomes a gateway pair.  Same
    3-hop coverage, so the CDS is still connected; the paper's
    criticism — possibly duplicated gateway pairs under partial
    information — does not arise here because the selection is
    computed from complete candidate sets. *)
val find_baker : Netgraph.Csr.t -> Mis.role array -> t

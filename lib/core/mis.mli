(** Clustering: maximal independent set by the smallest-ID rule.

    The paper's clustering phase (after Baker–Ephremides and Alzoubi)
    marks a white node as dominator when it has the smallest ID among
    its white neighbors; its white neighbors then become dominatees.
    The fixpoint of that rule is a maximal independent set, hence a
    dominating set.  This module is the centralized construction stage
    ({!Shard.pipeline} runs it per tile).  The reference
    implementation is {!Protocol}, which runs the same rule as a
    distributed message-passing protocol and must produce the
    identical set. *)

type role = Dominator | Dominatee

(** [compute_csr csr] runs the smallest-ID clustering to fixpoint on a
    CSR snapshot and returns each node's role.  Node ids double as the
    protocol's distinct IDs.  [priority] replaces the id order with an
    arbitrary total order on nodes: [priority u] smaller means more
    eligible, ties broken by id.  [owners] partitions the node ids
    into tiles (default: one tile holding every node); with [pool],
    each pass elects per-tile winners and applies them in two
    barrier-separated phases across the pool's domains.  Winners
    within a pass are pairwise non-adjacent, so the result is
    bit-identical for any tiling and any job count. *)
val compute_csr :
  ?pool:Netgraph.Pool.t ->
  ?owners:int array array ->
  ?priority:(int -> int) ->
  Netgraph.Csr.t ->
  role array

(** [compute ?priority g] is [compute_csr ?priority (Csr.of_graph g)]:
    the one-tile, pool-less build on a mutable graph. *)
val compute : ?priority:(int -> int) -> Netgraph.Graph.t -> role array

(** Dominator ids, increasing. *)
val dominators : role array -> int list

(** [dominators_of g roles u] is the list of dominators adjacent to
    [u] ([u]'s "Dominators" link list); empty when [u] is itself a
    dominator. *)
val dominators_of : Netgraph.Graph.t -> role array -> int -> int list

(** [two_hop_dominators g roles u] is [u]'s "2HopDominators" list:
    dominators at UDG-hop distance exactly two from [u]. *)
val two_hop_dominators : Netgraph.Graph.t -> role array -> int -> int list

(** Validation: no two dominators adjacent. *)
val is_independent : Netgraph.Graph.t -> role array -> bool

(** Validation: every dominatee has an adjacent dominator. *)
val is_dominating : Netgraph.Graph.t -> role array -> bool

(** Validation: no dominatee could be promoted (maximality). *)
val is_maximal : Netgraph.Graph.t -> role array -> bool

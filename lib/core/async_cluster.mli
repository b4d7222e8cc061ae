(** Asynchronous clustering — the paper's claim, made executable.

    Section III-A.1: "This protocol can be easily implemented using
    synchronous communications... If the number of neighbors of each
    node is known a priori, then this protocol can also be implemented
    using asynchronous communications."

    The asynchronous rendition exploits the acyclicity of the
    smallest-ID rule: a node's final role depends only on the final
    roles of its smaller-ID neighbors, so each node simply waits until
    every smaller neighbor has announced, decides (dominator iff no
    smaller neighbor announced dominator), and announces its own
    decision — exactly one [Decided] broadcast per node, no rounds, no
    clock, tolerant of arbitrary per-link message delays.  The
    test-suite checks the result equals the synchronous {!Mis.compute}
    under randomized adversarial delays. *)

type msg = Decided of bool  (** "I am a dominator" / "I am a dominatee" *)

(** [run ~delay udg] executes the protocol on the asynchronous engine
    and returns the roles plus the engine statistics (note
    [stats.sent] is exactly one per node). *)
val run :
  delay:(from:int -> dst:int -> seq:int -> float) ->
  Netgraph.Csr.t ->
  Mis.role array * Distsim.Async_engine.stats

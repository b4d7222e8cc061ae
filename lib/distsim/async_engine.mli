(** Asynchronous message-passing simulator.

    The synchronous {!Engine} steps all nodes in lockstep rounds; real
    radios do not.  This engine is event-driven: a broadcast from [u]
    at time [t] is delivered to each neighbor [v] at [t + delay ~from:u
    ~dst:v ~seq], where [delay] is supplied by the caller (and can be
    adversarial — per-link, per-message, reordering messages at will,
    as long as it is positive).  There are no rounds and no global
    clock visible to nodes; a node reacts only to deliveries.

    The paper claims its clustering "can also be implemented using
    asynchronous communications" when each node knows its neighbor
    count a priori; {!Core.Async_cluster} runs that protocol here and
    the test-suite checks the resulting maximal independent set is
    identical to the synchronous one under randomized delays. *)

type 'msg delivery = { from : int; time : float; msg : 'msg }

(** Per-node view handed to the protocol at start and on each
    delivery.  A node's neighbors are the row [init] received; the
    context does not repeat them. *)
type 'msg context = {
  me : int;
  now : float;
  broadcast : 'msg -> unit;
      (** transmit once; each neighbor receives it after its own delay *)
}

type ('state, 'msg) protocol = {
  init : int -> int array -> 'state;
      (** initial state from node id and its row of the snapshot: the
          1-hop neighbors in increasing id order, in a fresh array the
          protocol may keep *)
  on_start : 'msg context -> 'state -> 'state;
      (** called once per node at time 0, in id order *)
  on_message : 'msg context -> 'state -> 'msg delivery -> 'state;
}

type stats = {
  deliveries : int;  (** total point-to-point deliveries *)
  sent : int array;  (** transmissions per node *)
  finish_time : float;  (** time of the last delivery *)
  by_kind : (string * int) list;
      (** total transmissions per message kind, sorted by kind *)
}

(** [run ~delay ~max_messages csr protocol] drives the event loop to
    quiescence (empty event queue) on a {!Netgraph.Csr} snapshot of
    the connectivity graph.  A broadcast reaches the sender's row in
    increasing id order; deliveries due at the same time are processed
    in that send order.  [delay ~from ~dst ~seq] gives the
    latency of the [seq]-th transmission overall from [from] to [dst];
    it must be [> 0].  [max_messages] (default [10_000_000]) bounds
    total deliveries — exceeding it signals a non-terminating
    protocol.  [classify] names each message's kind for the per-kind
    stats, obs counters ([distsim.async.msg.<kind>]) and trace events
    (default: every message is ["msg"]).
    @raise Failure when the delivery bound is exceeded.
    @raise Invalid_argument on a non-positive delay. *)
val run :
  ?max_messages:int ->
  ?classify:('msg -> string) ->
  delay:(from:int -> dst:int -> seq:int -> float) ->
  Netgraph.Csr.t ->
  ('state, 'msg) protocol ->
  'state array * stats

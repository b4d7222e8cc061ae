(** Synchronous message-passing simulator.

    Models the paper's communication setting: omni-directional
    antennas, so one transmission is a single message heard by every
    1-hop neighbor in the connectivity graph.  Protocols are state
    machines driven in rounds; a round delivers everything broadcast in
    the previous round, then lets every node react.  The engine counts
    transmissions per node and per message kind — these counters are
    exactly the "communication cost" curves of the paper's Figures 10
    and 12.

    The engine runs on a {!Netgraph.Csr} snapshot of the connectivity
    graph and reads its rows in place.  The simulation is
    deterministic: nodes are stepped in id order, and an inbox holds
    its messages in sender id order, then in the order each sender
    broadcast them.  Nodes stepping in id order is also what makes each
    sender's broadcasts of a round one contiguous run in the round's
    send buffer, so a node's inbox is gathered from that buffer over
    its row just before its step, never held across the round. *)

(** One message as its receivers see it.  The engine allocates one
    record per broadcast and shares it among all of the sender's
    neighbors (the record is immutable), so a delivery costs an inbox
    cell, not a copy. *)
type 'msg delivery = { from : int; msg : 'msg }

(** Per-node view handed to the protocol each round.  A node's
    neighbors are the row [init] received; the context does not repeat
    them. *)
type 'msg context = {
  me : int;
  round : int;  (** 0-based; round 0 has empty inboxes *)
  broadcast : 'msg -> unit;
      (** transmit once; heard by every neighbor next round.  Valid
          only during the [on_round] call it was handed to. *)
}

type ('state, 'msg) protocol = {
  init : int -> int array -> 'state;
      (** initial state from node id and its row of the snapshot: the
          1-hop neighbors in increasing id order, in a fresh array the
          protocol may keep *)
  on_round : 'msg context -> 'state -> 'msg delivery list -> 'state;
      (** react to this round's inbox; may broadcast *)
}

type stats = {
  rounds : int;  (** rounds executed (including the initial round) *)
  sent : int array;  (** transmissions per node *)
  by_kind : (string * int) list;
      (** total transmissions per message kind, sorted by kind *)
}

val max_sent : stats -> int
val avg_sent : stats -> float
val total_sent : stats -> int

(** [merge s1 s2] adds the counters of two phases of a protocol stack
    (e.g. clustering then planarization) into one account.
    @raise Invalid_argument on mismatched node counts. *)
val merge : stats -> stats -> stats

(** [run ?max_rounds ?min_rounds ~classify csr protocol] executes
    the protocol until a round in which no node transmits (quiescence),
    or until [max_rounds] (default [4 * n + 16]) rounds have run —
    protocols in this library quiesce in O(1) rounds, so hitting the
    cap signals a bug.  A protocol that acts on a fixed round schedule
    passes [min_rounds] (default 0): quiescence ends the run only after
    that many rounds, so a scheduled round still runs when the rounds
    before it happened to be silent.  [classify] names each message's
    kind for the per-kind counters.  Returns final per-node states and
    the stats.

    Inbox order: the messages node [v] receives in round [r + 1] are
    those its neighbors broadcast in round [r], ordered by sender id,
    and each sender's in the order it broadcast them.  Lamport stamps
    ({!Stamp}) are a separate pass at the start of each round, over the
    previous round's messages in send order and each message's
    receivers in increasing id, so the traced [Send]/[Deliver] stream
    does not depend on how inboxes are assembled.
    @raise Failure when [max_rounds] is exceeded. *)
val run :
  ?max_rounds:int ->
  ?min_rounds:int ->
  classify:('msg -> string) ->
  Netgraph.Csr.t ->
  ('state, 'msg) protocol ->
  'state array * stats

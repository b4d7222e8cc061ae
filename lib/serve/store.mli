(** Epoch-pinned snapshot store: the read side of the serving layer.

    A store holds the current {e epoch} — an immutable, sealed
    all-CSR {!Core.Shard.snapshot} plus the UDG re-sealed {e with}
    Euclidean weights, derived once per epoch so stretch queries have
    their shortest-path denominator.  An epoch serves four things of
    the snapshot: [points], [roles] (the gateways), [udg] (greedy
    hops, hand-offs and stretch probes) and the planar [pldel] (GFG's
    recovery, see {!Core.Routing.hierarchical_into}).  Updates
    build the next snapshot off to the side and {!publish} it with a
    single atomic pointer swap; readers {!pin} the epoch they start
    on and keep using it for as long as they like — queries in flight
    are never torn by a publish, and an old epoch is garbage
    collected when its last reader drops it.

    Concurrency contract: any number of domains may {!pin}
    concurrently with one publishing writer.  Publishing from
    multiple domains concurrently is not supported (epoch ids are
    read-increment-set, not atomic read-modify-write) — the serve
    engine rolls epochs only between query batches, from the caller
    domain. *)

type t

(** One published generation.  All fields are immutable; hold the
    value to keep the whole generation alive. *)
type epoch

(** [create snap] is a store whose epoch 0 serves [snap]. *)
val create : Core.Shard.snapshot -> t

(** Current epoch; a single atomic load. *)
val pin : t -> epoch

(** [publish t snap] seals [snap] as the next epoch (id one above the
    current) and makes it current; returns the new epoch.  Callers
    already pinned keep their old epoch. *)
val publish : t -> Core.Shard.snapshot -> epoch

val id : epoch -> int
val points : epoch -> Geometry.Point.t array
val node_count : epoch -> int

(** The epoch's UDG with Euclidean arc weights — the shortest-path
    baseline for stretch queries (sealed weightless by the pipeline;
    re-sealed here once per epoch). *)
val udg_w : epoch -> Netgraph.Csr.t

(** The epoch's snapshot, which the engine routes on. *)
val snapshot : epoch -> Core.Shard.snapshot

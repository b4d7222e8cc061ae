(** Append-only edge accumulation sealed into {!Csr.t} snapshots.

    This is the construction substrate that retires the mutable
    Hashtbl-era {!Graph.t} from hot paths: producers append [(u, v)]
    records into a flat int buffer (two words per edge, duplicates
    welcome, no per-edge allocation) and {!seal} freezes the
    accumulated edge {e set} into a read-optimized CSR snapshot —
    counting-sort into rows, per-row sort, duplicate drop.

    The sealed snapshot depends only on the set of appended edges,
    never on append order, which is what makes per-tile parallel
    accumulation deterministic: workers fill private builders, the
    stitcher {!append}s them in tile order (any order would do), and
    one seal produces the same snapshot the serial build would.

    {!Graph.t} remains available through {!Csr.to_graph} for tests,
    examples and small instances. *)

type t

(** [create n] is an empty accumulator over nodes [0 .. n-1]. *)
val create : int -> t

val node_count : t -> int

(** Number of appended edge records, duplicates included. *)
val pending : t -> int

(** [add_edge b u v] appends one undirected edge.  Duplicates (in
    either orientation) are fine — sealing drops them.
    @raise Invalid_argument on a self-loop or out-of-range id. *)
val add_edge : t -> int -> int -> unit

val add_edges : t -> (int * int) list -> unit

(** Append every edge of a legacy graph (adapter direction). *)
val add_graph : t -> Graph.t -> unit

(** [append ~into b] bulk-appends [b]'s records into [into] — the
    stitch step merging per-tile accumulators.  [b] is unchanged.
    @raise Invalid_argument on node-count mismatch. *)
val append : into:t -> t -> unit

(** [seal b] freezes the accumulated edge set into a CSR snapshot.
    With [pool], the per-row sort, deduplication and weighing fan out
    across the pool's domains (bit-identical result for any job
    count).  [points]/[beta] precompute arc weights as in
    {!Csr.of_graph}, the same floats.  [b] is not
    consumed: further appends and later seals are allowed. *)
val seal :
  ?pool:Pool.t ->
  ?points:Geometry.Point.t array ->
  ?beta:float ->
  t ->
  Csr.t

(** A small fixed-size worker pool over OCaml 5 domains.

    Built from the stdlib only ([Domain], [Mutex], [Condition],
    [Atomic]); no external scheduler.  The pool exists to fan
    per-source SSSP passes out across cores: work items are the
    integers [0 .. n-1], workers pull contiguous chunks of about
    [n / (64 * jobs)] indices (at least one) from a shared atomic
    counter (dynamic load balancing), and each worker builds its own
    scratch state once per job, so the per-index body allocates
    nothing.

    Determinism: the pool never merges anything — each index writes
    to its own slot of caller-owned result arrays, and the caller
    folds those slots in index order after the join.  Results are
    therefore independent of worker count and scheduling (see
    DESIGN.md §6).

    The caller's domain participates in every job, so [create ~jobs:k]
    spawns [k - 1] worker domains and [jobs = 1] runs entirely inline.
    Worker bodies must not touch the {!Obs} registry (it is not
    domain-safe); the pool records its own obs counters and spans from
    the calling domain only.  {!Obs.Trace} hooks are fine from worker
    bodies — tracing is domain-local, and the pool brackets each job
    with a trace group and declares the (group, task) context around
    every claimed index, so merged traces are deterministic (see
    DESIGN.md §7). *)

type t

(** Number of domains the hardware supports well —
    [Domain.recommended_domain_count ()]; the default for every
    [--jobs] flag. *)
val default_jobs : unit -> int

(** [create ~jobs ()] spawns [jobs - 1] worker domains (clamped below
    at one job).  The pool must be shut down with {!shutdown} to join
    them. *)
val create : jobs:int -> unit -> t

(** Total parallelism including the calling domain. *)
val jobs : t -> int

(** [parallel_for pool ~n mk_body] runs [body i] for every
    [i in 0 .. n-1], where each participating domain obtains its own
    [body] as [mk_body ()] (build per-worker scratch there).  Blocks
    until all indices are done.  If bodies raise, the exception with
    the smallest index is re-raised in the caller after the join. *)
val parallel_for : t -> n:int -> (unit -> int -> unit) -> unit

(** [parallel_for_slots pool ~n mk_body] is {!parallel_for} with a
    stable identity for each participating domain: [mk_body ~slot]
    builds the body for worker slot [slot], where slot [0] is always
    the calling domain and slots [1 .. jobs-1] are the worker domains
    in spawn order.  A given slot is served by the same domain for the
    pool's whole lifetime, so callers running many jobs against one
    pool can keep long-lived per-domain scratch in a caller-owned
    array indexed by slot — each slot's entry is only ever touched by
    its own domain (the serve engine's query scratch works this way;
    the join in the caller publishes the slots' writes). *)
val parallel_for_slots : t -> n:int -> (slot:int -> int -> unit) -> unit

(** Join all workers.  The pool must not be used afterwards. *)
val shutdown : t -> unit

(** [with_pool ~jobs f] brackets [create]/[shutdown] around [f]. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

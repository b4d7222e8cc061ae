(** The concurrent query engine: runs a {!Workload.t} against a
    {!Store.t} across {!Netgraph.Pool} domains.

    Query index space is divided into batches; each batch {!Store.pin}s
    the current epoch once and fans its queries out over the pool's
    slots.  Batch boundaries depend only on [batch] and the workload
    size — never on the job count — and every per-query result lands
    in its own slot of the result arrays, so the deterministic part of
    the results ([hops], [stretch], [epoch]) is bit-identical for any
    [jobs].

    Each batch makes one view of the pinned snapshot's UDG and one of
    its PLDel; {!Workload} says which kind routes on which.

    Steady-state allocation: each pool slot owns one {!Core.Routing.Scratch.t}
    (plus a Dijkstra heap/dist pair for stretch probes), created on
    the slot's first query and reused for the rest of the run.  With
    [latency:false] and a closed-loop workload, a query of any kind
    performs no per-query heap allocation and no clock reads — the
    configuration the allocation gauge probe measures. *)

type results = {
  count : int;
  hops : int array;
      (** hop count per query; [-1] when the router dropped it *)
  stretch : float array;
      (** walked length / UDG shortest path for delivered stretch
          probes; [nan] otherwise *)
  epoch : int array;  (** epoch id each query was served under *)
  latency_us : float array;
      (** per-query latency (completion minus arrival when open loop,
          minus service start when closed); [[||]] when [latency:false] *)
  batch_edge : int array;  (** batch [b] covers [[edge.(b), edge.(b+1))] *)
  batch_s : float array;  (** wall-clock seconds per batch *)
  elapsed_s : float;
  minor_words : float;
      (** caller-domain [Gc.minor_words] delta over the run *)
  drops : int array array;
      (** [drops.(kind).(reason)]: dropped queries by kind code and
          {!Core.Routing.drop_reasons} index *)
}

(** [run ~store w] serves workload [w].  [jobs] (default 1) sizes a
    temporary pool unless [pool] is given; [batch] (default: all
    queries) sets the epoch-pinning granularity; [on_batch b] runs on
    the caller domain before batch [b] is pinned — the hook where
    churn publishes a new epoch.  Latency sampling ([latency],
    default true) reads the wall clock twice per query; switch it off
    for throughput/allocation measurements.  Registry metrics
    ([serve.queries], [serve.delivered], [serve.batches],
    [serve.hops], [serve.stretch], [serve.drops.<kind>.<reason>] and
    the [serve.minor_words_per_query] gauge) are recorded on the
    caller after the join, in query and slot order — deterministic for
    any [jobs]. *)
val run :
  ?jobs:int ->
  ?pool:Netgraph.Pool.t ->
  ?batch:int ->
  ?latency:bool ->
  ?on_batch:(int -> unit) ->
  store:Store.t ->
  Workload.t ->
  results

(** {1 Aggregation} *)

type summary = {
  s_queries : int;
  s_delivered : int;
  s_qps : float;  (** queries / elapsed wall-clock second *)
  s_elapsed_s : float;
  s_hop_p50 : float;
  s_hop_p99 : float;
  s_lat_p50_us : float;
  s_lat_p99_us : float;
  s_lat_p999_us : float;
  s_stretch_p50 : float;
  s_stretch_max : float;
  s_minor_per_query : float;
  s_drops : (string * string * int) list;
      (** nonzero drop counts as (kind, reason, count), in kind-code
          then reason order *)
}

(** Exact quantiles ({!Obs.quantiles}) over the result arrays: hops of
    the delivered queries, stretch of the delivered probes, latencies.
    [nan] where no value is held — e.g. latencies of a
    [latency:false] run. *)
val summarize : results -> summary

(** The drop counts on one line, ["gfg/face_loop 2, greedy/local_minimum
    40"], or ["none"]. *)
val drops_line : summary -> string

(** Per-batch rounds ([serve.qps], [serve.delivered], [serve.epoch],
    and [serve.p50_us]/[serve.p99_us] when latency was sampled) for
    sparkline rendering. *)
val to_telemetry : Obs.Telemetry.t -> results -> unit

(** {1 The per-query result log}

    One JSON object per line, deterministic fields only (no
    latencies): [q], [op], [src], [dst], [epoch], [hops], and
    [stretch] on stretch probes ([null] when dropped).  Two runs of
    the same seed and flags produce byte-identical logs regardless of
    [--jobs]. *)

type row = {
  r_q : int;
  r_op : string;
  r_src : int;
  r_dst : int;
  r_epoch : int;
  r_hops : int;
  r_stretch : float;  (** [nan] when absent or [null] *)
}

val write_jsonl : Format.formatter -> Workload.t -> results -> unit

(** Parse a log written by {!write_jsonl} back into rows (in file
    order).  @raise Failure on malformed lines. *)
val read_jsonl : string -> row list

(** Observability: named monotonic counters, value distributions and
    nestable timing spans, behind a near-zero-cost interface.

    Everything hangs off one global registry so instrumented modules
    (geometry predicates, the grid, the Delaunay kernel, the
    distributed engines, the backbone pipeline) report through a
    single channel.  When disabled — the default — every hot-path hook
    is a single load-and-branch on {!enabled}; no allocation, no
    hashing, no clock reads.  Counter values are deterministic for a
    deterministic computation; span durations are wall-clock and are
    the only non-deterministic quantity a {!Snapshot.t} carries.

    Handles are created once, at module initialization time
    ([let c = Obs.counter "delaunay.insertions"]), and bumped in hot
    loops.  [counter]/[dist] are idempotent per name, so two modules
    naming the same metric share one cell.

    {!Trace} adds a second, independent switch for structured event
    tracing: per-domain ring buffers of typed events with a
    deterministic merge, a Chrome trace-event exporter, a folded-stacks
    profile and protocol message audits (see DESIGN.md §7). *)

(** {1 Switch} *)

(** The global on/off flag, exposed as a ref so hot paths can guard
    compound instrumentation ([if !Obs.on then ...]) at the cost of a
    single load.  Treat as read-only outside {!set_enabled}. *)
val on : bool ref

val enabled : unit -> bool
val set_enabled : bool -> unit

(** [quiesced f] runs [f ()] with the registry disabled, restoring the
    previous state afterwards (also on exceptions).  The registry is
    not domain-safe, so parallel construction stages wrap their worker
    fan-out in this; a {!span} entered {e before} the quiesce still
    records its timing, since [span] checks the switch once at entry. *)
val quiesced : (unit -> 'a) -> 'a

(** [reset ()] zeroes every counter, distribution, span, gauge and
    histogram while keeping all registered handles valid. *)
val reset : unit -> unit

(** {1 Counters} *)

type counter

(** [counter name] returns the monotonic counter registered under
    [name], creating it at zero on first use. *)
val counter : string -> counter

(** [incr c] adds one when enabled; a no-op when disabled. *)
val incr : counter -> unit

(** [add c n] adds [n] when enabled; a no-op when disabled. *)
val add : counter -> int -> unit

(** Current value (reads even when disabled). *)
val value : counter -> int

(** {1 Distributions}

    Count / sum / sum-of-squares / min / max of an observed stream of
    values — enough for average sizes and their spread (grid query
    degrees, cavity sizes, per-node message counts) without storing
    samples. *)

type dist

val dist : string -> dist
val observe : dist -> float -> unit

(** {1 Gauges}

    Instantaneous values — the current level of something (heap words,
    backbone size, pool utilization) — sampled rather than accumulated.
    [set_gauge] overwrites the previous sample; a snapshot reports the
    latest sample only, and only for gauges that have been set since
    the last {!reset}.  Like counters, handles are idempotent per name
    and writes are no-ops while disabled.  Because gauge samples are
    not reproducible across runs they are excluded from
    {!Snapshot.compare_against}. *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit

(** Latest sample (reads even when disabled); [nan] before the first
    [set_gauge]. *)
val gauge_value : gauge -> float

(** {1 Quantiles} *)

(** [quantiles xs qs] is the exact [q]-quantile of [xs] for each [q]
    of [qs] (clamped to [[0, 1]]): NaNs are dropped, a copy is sorted
    once, and each [q] reads the sorted values at rank [q * (n - 1)],
    interpolating linearly between neighbours.  Every entry is [nan]
    when no value is left.  [xs] is not modified. *)
val quantiles : float array -> float array -> float array

(** {1 Histograms}

    Fixed-bucket mergeable histograms over one global log-2 bucket
    ladder.  Two histograms merge by element-wise bucket addition —
    the merged result is independent of how observations were split
    across pool slots or domains, which is what lets the serve engine
    record per-slot and merge post-join without breaking
    jobs-bit-identity — and the bucket counts expose directly as a
    Prometheus [histogram] with cumulative [le] buckets.  For exact
    quantiles of values held in full, use {!quantiles}.

    The ladder is the 41 exact powers of two [2^-10 .. 2^30] plus an
    overflow bucket: wide enough for hop counts and microsecond
    latencies alike, and bucketing is an exact comparison search — no
    transcendental math, no rounding ambiguity.  A value lands in the
    first bucket whose upper bound it does not exceed ([le]
    semantics). *)

module Histogram : sig
  type t

  (** Buckets per histogram: the 41 bounds plus the [+Inf] bucket. *)
  val buckets_len : int

  (** A fresh, empty histogram — a plain value, no global switch
      (registered histograms are gated through {!Obs.observe_hist}). *)
  val create : unit -> t

  (** Record one value, unconditionally. *)
  val observe : t -> float -> unit

  (** [observe_int h n = observe h (float_of_int n)], allocation-free:
      no float is boxed across the call, so it is safe on zero-alloc
      per-query paths (the serve engine's hop counts). *)
  val observe_int : t -> int -> unit

  val count : t -> int
  val sum : t -> float

  (** A copy of the per-bucket (non-cumulative) counts. *)
  val buckets : t -> int array

  (** [merge_into ~into src] adds [src]'s counts and sum into [into];
      commutative and associative, [src] is unchanged. *)
  val merge_into : into:t -> t -> unit

  (** Upper bound of the bucket holding the [q]-quantile rank — an
      upper estimate exact to within one bucket width; [nan] when
      empty, [+inf] when the rank lands in the overflow bucket. *)
  val quantile : t -> float -> float
end

(** [histogram name] returns the registry histogram under [name],
    creating it empty on first use (idempotent per name, like
    {!counter}). *)
val histogram : string -> Histogram.t

(** Record into a registry histogram when enabled; a no-op when
    disabled. *)
val observe_hist : Histogram.t -> float -> unit

(** Merge a scratch histogram (e.g. a per-slot one) into a registry
    histogram when enabled; a no-op when disabled. *)
val merge_hist : into:Histogram.t -> Histogram.t -> unit

(** {1 Runtime (GC) gauges}

    A second single load-and-branch switch, like {!Trace.on}: when
    armed, every {!span} boundary (entry and exit) samples
    [Gc.quick_stat] into the gauges [gc.minor_words],
    [gc.major_words], [gc.heap_words], [gc.minor_collections],
    [gc.major_collections] and [gc.compactions], so any instrumented
    stage bounds its allocation behaviour without touching hot
    paths.  Each span entered while armed also adds the minor words
    allocated during the call (its children's included) to its path's
    total, read back with {!span_minor_words}. *)

val gc_gauges : bool ref
val set_gc_sampling : bool -> unit

(** [span_minor_words path] is the total of minor words allocated in
    the calls of span [path] entered while GC sampling was armed since
    the last {!reset}; [0.] for a path never entered. *)
val span_minor_words : string -> float

(** {1 Spans}

    [span name f] times [f ()] with a wall clock and charges it to the
    path [parent/.../name] formed by the spans currently open on the
    (thread-unsafe, global) span stack.  Re-entering the same path
    accumulates: a snapshot reports calls and total seconds per path.
    When disabled it is exactly [f ()].  When {!Trace} is armed, entry
    and exit additionally record [Span_begin]/[Span_end] events. *)

val span : string -> (unit -> 'a) -> 'a

(** {1 Clock}

    The project's only exported wall clock (lint rule D003 bans raw
    time calls outside [lib/obs] and the bench harness): microseconds
    since the Unix epoch, as a float.  Stateless and domain-safe —
    worker bodies may call it even though the registry itself is not
    domain-safe.  Deltas of this clock are wall time; like span
    seconds they are non-deterministic and must stay out of anything
    a regression gate compares exactly. *)
val clock_us : unit -> float

(** {1 Structured event tracing}

    A second switch, {!Trace.on}, arms recording of typed events into
    per-domain ring buffers.  Every hook is a single load-and-branch
    when disarmed.  Recording is lock-free (each domain owns its
    buffer, reached through [Domain.DLS]); when a ring fills, the
    oldest events are overwritten and counted in {!Trace.dropped}.

    {!Trace.events} merges all buffers deterministically: events
    recorded inside a {!Netgraph.Pool} job are stable-sorted by task
    index and spliced at the job's end marker, so the merged
    [(task, phase, payload)] sequence is bit-identical for any [--jobs]
    (timestamps and domain ids are the only scheduling-dependent
    fields). *)

module Trace : sig
  (** The trace switch; independent of {!Obs.on} so counters can stay
      cheap while events record, and vice versa.  Hot paths guard
      compound event construction with [if !Obs.Trace.on then ...]. *)
  val on : bool ref

  (** [start ?capacity ()] clears all ring buffers, resizes them to
      [capacity] events (default [65536]; new per-domain buffers also
      use the latest capacity) and arms recording.  Must not be called
      while worker domains are recording. *)
  val start : ?capacity:int -> unit -> unit

  (** Disarm recording; buffered events stay available to {!events}. *)
  val stop : unit -> unit

  (** Events overwritten across all ring buffers since {!start}. *)
  val dropped : unit -> int

  type payload =
    | Span_begin of string  (** full span path, from {!Obs.span} *)
    | Span_end of string
    | Count of { name : string; delta : int }
        (** counter increment; consecutive same-name deltas coalesce *)
    | Send of {
        round : int;
        time : float;
        kind : string;
        src : int;
        dst : int;
        lam : int;
        sseq : int;
      }
        (** protocol transmission; [round = -1] for async engines,
            [dst = -1] for local broadcast.  [lam] is the sender's
            Lamport clock after the send tick and [sseq] its per-node
            event sequence: [(src, sseq)] names the message, which its
            deliveries reference.  Both are maintained by the single
            stamping helper [Distsim.Stamp] (lint rule O002). *)
    | Deliver of {
        round : int;
        time : float;
        kind : string;
        src : int;
        dst : int;
        lam : int;
        sseq : int;
        dseq : int;
      }
        (** reception of send [(src, sseq)] at [dst]; [lam] is the
            receiver's clock after the [max (local, sender) + 1]
            update, [dseq] the receiver's own event sequence *)
    | Job of { group : int; enter : bool }
        (** pool job bracket, internal — rewritten to
            [Span_begin/Span_end "pool.job"] by {!events} *)
    | Alert of {
        round : int;
        probe : string;
        value : float;
        limit : float;
        node : int;
      }
        (** health-monitor invariant violation: [probe] exceeded
            [limit] with [value] at [round]; [node] is a witness
            (e.g. the max-degree node, an endpoint of a crossing) or
            [-1] when no single node is implicated *)

  type event = {
    ts : float;  (** microseconds since {!start} *)
    dom : int;  (** recording domain id *)
    group : int;  (** pool job id, [-1] outside jobs *)
    task : int;  (** pool work-item index, [-1] outside jobs *)
    phase : string;
        (** the {!Obs.span} path open at record time; [""] inside pool
            tasks, where the caller's span stack cannot be read *)
    payload : payload;
  }

  (** {2 Recording hooks} *)

  val span_begin : string -> unit
  val span_end : string -> unit

  (** Raw protocol-event hooks.  Outside [lib/obs] and [lib/distsim]
      these must not be called directly — the clocks they record are
      owned by [Distsim.Stamp] (lint rule O002 enforces this). *)

  val send :
    round:int -> time:float -> kind:string -> src:int -> dst:int ->
    lam:int -> sseq:int -> unit

  val deliver :
    round:int -> time:float -> kind:string -> src:int -> dst:int ->
    lam:int -> sseq:int -> dseq:int -> unit

  (** Record an invariant violation (see {!constructor-Alert});
      exported to Chrome JSON as an instant event with
      [dir = "alert"]. *)
  val alert :
    round:int -> probe:string -> value:float -> limit:float -> node:int -> unit

  (** {2 Pool integration}

      Used by {!Netgraph.Pool}: the caller allocates a group id and
      brackets the job; each participating domain declares the task it
      is about to run so its events carry [(group, task)]. *)

  val new_group : unit -> int
  val job_enter : int -> unit
  val job_leave : int -> unit
  val set_context : group:int -> task:int -> unit

  (** {2 Export} *)

  (** Deterministic merge of all per-domain buffers (see module
      comment).  Call from the domain that ran the traced code. *)
  val events : unit -> event list

  (** Chrome trace-event JSON ([chrome://tracing], Perfetto).  One
      event object per line; the exact subset emitted here parses back
      with {!read_chrome}.  [flows] pairs (send, deliver) events from
      [evs]; each pair is drawn as a flow arrow (see {!Causal.flows});
      flow lines are skipped by {!read_chrome}, keeping the event
      round-trip exact. *)
  val write_chrome :
    ?flows:(event * event) list -> Format.formatter -> event list -> unit

  (** Parse {!write_chrome} output.  Round-trips exactly (floats are
      printed with 17 significant digits); flow-arrow lines are
      skipped.
      @raise Failure on malformed input. *)
  val read_chrome : string -> event list

  (** Folded stacks, one [path;to;span self-µs] line per span path,
      sorted — pipe into [flamegraph.pl]. *)
  val write_folded : Format.formatter -> event list -> unit

  type profile_row = {
    p_path : string;
    p_calls : int;
    p_total : float;  (** seconds, including children *)
    p_self : float;  (** seconds, excluding children *)
  }

  (** Aggregate span begin/end pairs (per domain) into calls /
      total / self time per span path, in first-seen order. *)
  val profile : event list -> profile_row list

  type audit_row = {
    a_phase : string;
    a_kind : string;
    a_sends : int;
    a_deliveries : int;
  }

  (** Message-complexity table: sends and deliveries grouped by
      (recording phase, message kind); phases in first-seen order,
      kinds sorted within a phase. *)
  val message_audit : event list -> audit_row list

  (** Least-squares slope of [log y] against [log x] — the empirical
      growth exponent; [nan] on fewer than two usable points. *)
  val fit_loglog_slope : (float * float) list -> float
end

(** {1 Happens-before analysis}

    Post-run reconstruction of the causal structure recorded by the
    Lamport-stamped Send/Deliver events: the merged stream from
    {!Trace.events} is a valid topological linearization (engines
    record a Deliver after its Send; per-node stream order is program
    order), so one O(events) forward pass computes longest causal
    chains.  Matching is per span path — every engine run gets a fresh
    stamp state, so [(src, sseq)] keys repeat across phases but are
    unique within one.  All results depend only on the (phase, payload)
    projection of the stream, hence are bit-identical across worker
    counts, like the stream itself. *)
module Causal : sig
  (** Causality violations, reported in stream order.  [index] is the
      event's position in the analyzed stream. *)
  type violation =
    | Orphan_deliver of {
        phase : string;
        src : int;
        dst : int;
        sseq : int;
        index : int;
      }  (** a Deliver whose [(src, sseq)] has no preceding Send *)
    | Clock_regression of {
        phase : string;
        node : int;
        lam : int;
        prev : int;
        index : int;
      }
        (** a stamp that fails to advance: [lam <= prev] for the node's
            previous stamp, or for the matched send's stamp *)

  val pp_violation : Format.formatter -> violation -> unit

  (** One event on a critical path. *)
  type step = {
    s_index : int;  (** position in the analyzed stream *)
    s_dir : [ `Send | `Deliver ];
    s_kind : string;
    s_node : int;  (** sender for sends, receiver for delivers *)
    s_round : int;
    s_time : float;
    s_depth : int;  (** causal depth (message hops) at this event *)
  }

  type phase_report = {
    ph_phase : string;  (** span path the events were recorded under *)
    ph_events : int;  (** protocol events in the phase *)
    ph_depth : int;  (** critical-path length in message hops *)
    ph_rounds : int;  (** engine rounds spanned by the critical path *)
    ph_span_time : float;  (** simulated time along the critical path *)
    ph_width : (int * int) list;
        (** events per causal depth, [0..ph_depth] *)
    ph_path : step list;  (** the critical path, root first *)
    ph_attribution : (int * int) list;
        (** node -> critical-path events, most-loaded first (ties by
            node id) — where the run's latency lives *)
  }

  type report = {
    r_phases : phase_report list;  (** first-seen stream order *)
    r_depth : int;
        (** end-to-end critical path: phases run sequentially, so
            depths add *)
    r_rounds : int;
    r_span_time : float;
    r_violations : violation list;
  }

  (** One pass over a {!Trace.events} stream; non-protocol events are
      ignored.  O(n) time and space in the stream length. *)
  val analyze : Trace.event list -> report

  (** The critical-path (send, deliver) pairs of [report], resolved
      back into the events of the stream it was computed from — feed to
      {!Trace.write_chrome} as [~flows]. *)
  val flows : Trace.event list -> report -> (Trace.event * Trace.event) list

  (** DOT dump of the happens-before DAG (all protocol events, one
      cluster per phase; message edges solid, program order dashed,
      critical path red).  Meant for small n — the graph has one node
      per event. *)
  val write_dot : Format.formatter -> Trace.event list -> unit
end

(** {1 Telemetry time-series}

    A round-clock recorder, the third observability pillar next to the
    cumulative registry (counters/dists/spans) and the event {!Trace}:
    named probes push values per round with {!Telemetry.record} into
    an in-memory time-series that keeps every value, so a run's
    summary is exact ({!quantiles} over a {!Telemetry.series}).
    Series export as JSON-lines or CSV and render as terminal
    sparklines (the [spanner_cli monitor] health table).  A recorder
    is a plain value — no global switch. *)

module Telemetry : sig
  type t

  val create : unit -> t

  (** [record t ~round name v] appends one value to [name]'s series. *)
  val record : t -> round:int -> string -> float -> unit

  (** Rounds seen, in recording order. *)
  val rounds : t -> int list

  (** Probe names, sorted. *)
  val names : t -> string list

  (** [series t name] is the recorded [(round, value)] list in
      recording order; [[]] for unknown probes. *)
  val series : t -> string -> (int * float) list

  (** Most recently recorded value of a probe. *)
  val last : t -> string -> float option

  (** One [{"kind":"telemetry","round":..,"name":..,"value":..}]
      object per recorded value — rounds in recording order, names
      sorted within a round, floats with 17 significant digits so
      {!read_jsonl} round-trips exactly. *)
  val write_jsonl : Format.formatter -> t -> unit

  (** Parse {!write_jsonl} output into [(round, (name, value) list)]
      rows. @raise Failure on malformed input. *)
  val read_jsonl : string -> (int * (string * float) list) list

  (** CSV matrix: header [round,<name>,...] (names sorted), one row
      per round, empty cells where a probe has no value that round. *)
  val write_csv : Format.formatter -> t -> unit

  (** Eight-level Unicode sparkline of a series, min–max scaled over
      the finite samples (NaNs dropped; infinities pin to the extreme
      bars; a constant or single-sample series renders the middle
      bar); [""] for the empty series. *)
  val sparkline : float list -> string
end

(** {1 Flight recorder}

    An always-on, bounded, per-domain ring of recent coarse events —
    batch summaries, epoch publishes, monitor violations, GC major
    slices.  Unlike {!Trace} (armed per run, per-message volume) the
    recorder only sees a few events per second, so it stays recording
    in production and is dumped on demand: [GET /debug/ring] on the
    {!Export} listener, on a monitor violation, or on [SIGUSR2] (the
    CLI installs the handler for [serve]/[monitor] runs).  Entries
    carry a global sequence number from one atomic counter, so a dump
    merges the per-domain rings into one causal order.  Timestamps are
    {!clock_us} wall time; recorder contents never feed a regression
    gate. *)

module Recorder : sig
  type event =
    | Batch of { batch : int; queries : int; epoch : int; wall_us : float }
        (** one serve-engine batch completed *)
    | Epoch_published of { epoch : int; nodes : int }
        (** a store published a new epoch *)
    | Monitor_violation of {
        round : int;
        probe : string;
        value : float;
        limit : float;
        node : int;
      }
    | Gc_major of { heap_words : int; major_collections : int }
        (** end of a GC major cycle (only when the alarm is armed) *)
    | Note of string  (** free-form milestone *)

  type entry = {
    e_seq : int;  (** global recording order *)
    e_dom : int;  (** recording domain id *)
    e_t_us : float;  (** {!clock_us} at record time *)
    e_event : event;
  }

  (** Record one event into the calling domain's ring, overwriting the
      oldest entry when full.  Always on; a few words of allocation
      per call, so keep it off per-query paths. *)
  val record : event -> unit

  (** All buffered entries, merged across domains in sequence order. *)
  val entries : unit -> entry list

  (** [dump fmt ()] writes the merged ring to [fmt] as one JSON array
      (oldest first) and flushes. *)
  val dump : Format.formatter -> unit -> unit

  (** Resize every ring (default capacity 256 entries per domain),
      discarding current contents. *)
  val set_capacity : int -> unit

  (** Discard all entries and restart the sequence counter. *)
  val clear : unit -> unit

  (** Arm/disarm a [Gc.create_alarm] that records {!constructor-Gc_major} at
      the end of every major cycle.  Explicit, so allocation-gated
      benchmarks are not perturbed unless a caller opts in. *)
  val arm_gc_alarm : unit -> unit

  val disarm_gc_alarm : unit -> unit
end

(** {1 Snapshots and sinks} *)

module Snapshot : sig
  type dist_stats = {
    count : int;
    sum : float;
    sumsq : float;
    min : float;
    max : float;
  }

  type span_stats = { path : string; calls : int; seconds : float }

  type hist_stats = {
    h_count : int;
    h_sum : float;
    h_buckets : int array;
        (** per-bucket (non-cumulative) counts over the bucket
            ladder; length {!Histogram.buckets_len} *)
  }

  type t = {
    counters : (string * int) list;  (** sorted by name *)
    dists : (string * dist_stats) list;  (** sorted by name; count > 0 *)
    spans : span_stats list;  (** sorted by path *)
    gauges : (string * float) list;
        (** sorted by name; only gauges set since the last reset *)
    hists : (string * hist_stats) list;  (** sorted by name; count > 0 *)
  }

  val dist_mean : dist_stats -> float

  (** Population standard deviation, from count/sum/sumsq. *)
  val dist_stddev : dist_stats -> float

  (** Capture the registry's current state.  Counters are reported
      even when zero; distributions and histograms only once observed.
      Safe to call from the {!Export} listener thread: the capture
      holds the registration mutex, so a concurrent first-use
      registration on the writer thread cannot resize a table
      mid-fold (cell values themselves are single-writer and
      word-sized — see DESIGN.md §13). *)
  val capture : unit -> t

  (** Parse the output of the {!val-json} sink (one JSON object per
      line).  Only the exact subset this module emits is understood.
      @raise Failure on malformed input. *)
  val of_json_lines : string -> t

  (** Parse the output of the {!val-csv} sink.
      @raise Failure on malformed input. *)
  val of_csv : string -> t

  type mismatch = {
    m_kind : string;
        (** ["counter"], ["dist.count"], ["span.calls"],
            ["span.seconds"], ["hist.count"] or ["hist.bucket"] (whose
            [m_name] carries the bucket as [name[le=bound]]) *)
    m_name : string;
    m_expected : float;
        (** [nan] for a counter unrecorded in the reference *)
    m_actual : float;  (** [nan] when missing from the current snapshot *)
  }

  (** [compare_against ~threshold ~reference current] compares a fresh
      snapshot against a committed baseline and returns one mismatch
      per violated key (empty = pass), in reference order, then the
      unrecorded counters in the current snapshot's order.  Counters,
      distribution observation counts, span call counts and histogram
      totals and per-bucket counts are deterministic for a fixed
      configuration and must match exactly; span seconds may exceed
      the reference by at most [threshold] (e.g. [0.5] = +50%).  A
      nonzero counter present only in [current] is reported as
      unrecorded, so every counter a run emits is gated; other metrics
      present only in [current] are ignored, so adding spans,
      distributions or histograms does not break existing baselines.
      Gauges are skipped (instantaneous samples are not
      reproducible). *)
  val compare_against : threshold:float -> reference:t -> t -> mismatch list
end

(** A sink consumes one snapshot; the destination (file, formatter,
    buffer) is captured in the closure, so sinks are pluggable
    end-to-end: [Backbone.Config.sink], [--stats] in the CLI and the
    bench harness all take a value of this type. *)
type sink = Snapshot.t -> unit

(** Human-readable table: counters, span tree (indented by nesting),
    distributions (count/avg/stddev/min/max), histograms
    (count/avg/approximate p50 and p99), gauges. *)
val pretty : Format.formatter -> sink

(** JSON-lines: one [{"kind":...}] object per metric.  Floats are
    printed with 17 significant digits and round-trip exactly through
    {!Snapshot.of_json_lines}. *)
val json : Format.formatter -> sink

(** CSV with header [kind,name,a,b,c,d,e]; round-trips through
    {!Snapshot.of_csv}. *)
val csv : Format.formatter -> sink

(** [named_sink fmt name] maps ["pretty"], ["json"], ["csv"] to the
    sink above; [None] for anything else. *)
val named_sink : Format.formatter -> string -> sink option

(** [report sink] captures and emits in one step. *)
val report : sink -> unit

(** {1 Live exposition}

    A minimal single-threaded HTTP listener on stdlib [Unix] serving
    the registry while the process runs:

    - [GET /metrics] — the registry in Prometheus text exposition
      format: counters and gauges as single samples, dists as a
      [summary]'s [_sum]/[_count], spans as [span_calls]/[span_seconds]
      with a [path] label, histograms with cumulative [le] buckets;
    - [GET /healthz] — [200 ok] / [503] from the [health] callback
      (the CLI wires {!Core.Monitor}'s probe status in);
    - [GET /debug/ring] — the {!Recorder} contents as JSON;
    - any extra [routes] the caller injects (e.g. [/epoch] reporting
      the serve store's current epoch id).

    The accept loop runs on one systhread inside the calling domain:
    it interleaves with the writer at safepoints instead of running in
    parallel, and {!Snapshot.capture} holds the registration mutex, so
    a scrape is a consistent snapshot that never perturbs the query
    path (the registry stays single-writer; see DESIGN.md §13). *)

module Export : sig
  type handle

  (** [start ~port ()] binds [127.0.0.1:port] ([port = 0] picks an
      ephemeral port — see {!port}) and serves until {!stop}.
      @raise Unix.Unix_error when the port cannot be bound. *)
  val start :
    ?health:(unit -> bool * string) ->
    ?routes:(string * (unit -> string)) list ->
    port:int ->
    unit ->
    handle

  (** The actually-bound port. *)
  val port : handle -> int

  (** [/metrics] requests served so far. *)
  val scrape_count : handle -> int

  (** Stop the listener and join its thread (idempotent-ish: safe to
      call once per handle). *)
  val stop : handle -> unit

  (** The exposition text for one snapshot — what [/metrics] serves.
      Label values escape backslash, double-quote and newline, and
      HELP text escapes backslash and newline, per the Prometheus
      0.0.4 text format — so arbitrary span paths and registry keys
      survive the round-trip through {!parse_exposition}. *)
  val metrics_text : Snapshot.t -> string

  (** Parse exposition text into [(sample key, value)] pairs, where a
      labelled sample keeps its label block in the key (e.g.
      [span_calls{path="backbone/cds"}]).
      @raise Failure on any malformed line — scrape smokes re-parse
      the served text through this. *)
  val parse_exposition : string -> (string * float) list

  (** [check_snapshot samples snap] cross-checks parsed samples
      against an in-process snapshot: counters, dist counts, span
      calls, histogram totals and cumulative buckets must all match
      exactly.  Returns human-readable discrepancies ([[]] = agree). *)
  val check_snapshot : (string * float) list -> Snapshot.t -> string list

  (** Blocking one-shot HTTP GET against [127.0.0.1:port]; returns
      [(status line, body)].  For self-scrapes and tests. *)
  val get : port:int -> string -> string * string
end

(** Lamport stamping for the distsim engines.

    One [t] per engine run carries a Lamport clock and an event
    sequence per node; {!send} and {!deliver} advance them and emit the
    causally-annotated [Obs.Trace] protocol events.  This is the single
    writer of those events — lint rule O002 rejects raw
    [Obs.Trace.send]/[Obs.Trace.deliver] calls outside [lib/distsim] —
    so the clocks recorded in a trace are coherent by construction and
    [Obs.Causal] can rebuild the happens-before DAG from them.

    The clocks are observable only through the trace.  {!Engine} calls
    {!send} and {!deliver} only when a trace is armed as its run
    starts, so an untraced synchronous run never advances them;
    {!Async_engine} stamps every message (a few integer ops each) and
    gates only the event emission on [!Obs.Trace.on]. *)

type t

(** [create n] — fresh clocks for an [n]-node run, all zero. *)
val create : int -> t

(** [send t ~round ~time ~kind ~src] ticks [src]'s clock and sequence,
    emits the [Send] event (with [dst = -1]: engines broadcast
    locally), and returns [(lam, sseq)] — the stamp to carry with the
    in-flight message so its deliveries can reference it. *)
val send :
  t -> round:int -> time:float -> kind:string -> src:int -> int * int

(** [deliver t ~round ~time ~kind ~src ~dst ~sent_lam ~sseq] updates
    [dst]'s clock to [max (local, sent_lam) + 1], ticks its sequence,
    and emits the [Deliver] event referencing send [(src, sseq)]. *)
val deliver :
  t ->
  round:int ->
  time:float ->
  kind:string ->
  src:int ->
  dst:int ->
  sent_lam:int ->
  sseq:int ->
  unit

module Csr = Netgraph.Csr

(* Epoch publication is a single [Atomic.set] of an immutable record;
   a reader's [pin] is a single [Atomic.get].  Everything reachable
   from an epoch (the shard snapshot and the derived CSRs) is sealed
   before the set, so readers on other domains see a fully built
   epoch or the previous one, never a partial — the usual
   publish-by-pointer-swap discipline.  Old epochs stay valid as long
   as someone holds them and are reclaimed by the GC when the last
   pin is dropped. *)

type epoch = {
  id : int;
  snap : Core.Shard.snapshot;
  udg_w : Csr.t;
}

type t = { cell : epoch Atomic.t }

let seal ~id (snap : Core.Shard.snapshot) =
  let udg = snap.Core.Shard.udg in
  {
    id;
    snap;
    udg_w =
      (if Csr.has_weights udg then udg
       else Csr.with_weights udg snap.Core.Shard.points);
  }

let create snap =
  let e = seal ~id:0 snap in
  Obs.Recorder.record
    (Obs.Recorder.Epoch_published
       { epoch = 0; nodes = Array.length snap.Core.Shard.points });
  { cell = Atomic.make e }

let pin t = Atomic.get t.cell

let publish t snap =
  let e = seal ~id:((Atomic.get t.cell).id + 1) snap in
  Atomic.set t.cell e;
  Obs.Recorder.record
    (Obs.Recorder.Epoch_published
       { epoch = e.id; nodes = Array.length snap.Core.Shard.points });
  e

let id e = e.id
let points e = e.snap.Core.Shard.points
let node_count e = Array.length e.snap.Core.Shard.points
let udg_w e = e.udg_w
let snapshot e = e.snap

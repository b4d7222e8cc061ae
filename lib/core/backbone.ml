module Csr = Netgraph.Csr

type t = {
  snap : Shard.snapshot;
  jobs : int;
  udg : Csr.t;
  ldel_icds_g : Csr.t;
}

module Config = struct
  type radio = Disk | Quasi of { r_min : float; seed : int64 }
  type partition = Auto | Tiles of int

  type t = {
    radius : float;
    priority : (int -> int) option;
    radio : radio;
    sink : Obs.sink option;
    jobs : int;
    partition : partition;
  }

  let default =
    {
      radius = 60.;
      priority = None;
      radio = Disk;
      sink = None;
      jobs = Netgraph.Pool.default_jobs ();
      partition = Auto;
    }
end

(* Enable the sink (when given) around [stages], reporting on exit. *)
let with_sink sink stages =
  match sink with
  | None -> stages ()
  | Some sink ->
    let was = Obs.enabled () in
    Obs.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Obs.set_enabled was;
        Obs.report sink)
      stages

let pipeline (cfg : Config.t) points =
  let radius = cfg.Config.radius in
  let tiles =
    match cfg.Config.partition with
    | Config.Tiles k -> Some k
    | Config.Auto -> None
  in
  let udg =
    (* the quasi radio draws links from a sequential RNG stream, so
       its UDG is built serially and only the later stages shard *)
    match cfg.Config.radio with
    | Config.Disk -> None
    | Config.Quasi { r_min; seed } ->
      Some
        (Obs.span "udg" (fun () ->
             Wireless.Udg.build_quasi
               (Wireless.Rand.create seed)
               points ~r_min ~r_max:radius))
  in
  Shard.pipeline ~jobs:cfg.Config.jobs ?tiles ?priority:cfg.Config.priority
    ?udg points ~radius

let snapshot (cfg : Config.t) points =
  with_sink cfg.Config.sink (fun () -> pipeline cfg points)

let run (cfg : Config.t) points =
  with_sink cfg.Config.sink (fun () ->
      Obs.span "backbone" (fun () ->
          let snap = pipeline cfg points in
          {
            snap;
            jobs = max 1 cfg.Config.jobs;
            udg = snap.Shard.udg;
            ldel_icds_g = snap.Shard.pldel;
          }))

let build ?priority points ~radius =
  run { Config.default with Config.radius; priority } points

let ldel_full t =
  Ldel.planar t.udg
    (Ldel.build t.udg t.snap.Shard.points ~radius:t.snap.Shard.radius)

(* The structure registry: Table I order, defined in exactly one
   place.  The four baseline rows span all nodes by construction; the
   backbone family carries the paper's spans-all / backbone-only
   distinction.  Everything that enumerates structures — [structures],
   the CLI's build/dump subcommands, the experiment sweeps, the bench
   extensions — derives from these lists. *)

type scope = [ `Spans_all | `Backbone_only ]

let baseline_registry : (string * (t -> Csr.t) * scope) list =
  let on_udg f t = f t.udg t.snap.Shard.points in
  [
    ("UDG", (fun t -> t.udg), `Spans_all);
    ("RNG", on_udg Wireless.Proximity.rng_graph, `Spans_all);
    ("GG", on_udg Wireless.Proximity.gabriel_graph, `Spans_all);
    ("LDel", ldel_full, `Spans_all);
  ]

let backbone_registry : (string * (t -> Csr.t) * scope) list =
  let snap f t = f t.snap in
  [
    ("CDS", snap (fun s -> s.Shard.cds), `Backbone_only);
    ( "CDS'",
      snap (fun s -> Shard.primed s.Shard.roles s.Shard.icds' s.Shard.cds),
      `Spans_all );
    ("ICDS", snap (fun s -> s.Shard.icds), `Backbone_only);
    ("ICDS'", snap (fun s -> s.Shard.icds'), `Spans_all);
    ("LDel(ICDS)", snap (fun s -> s.Shard.pldel), `Backbone_only);
    ("LDel(ICDS')", snap (fun s -> s.Shard.pldel'), `Spans_all);
  ]

let registry = baseline_registry @ backbone_registry

let names = List.map (fun (n, _, _) -> n) registry

let materialize entries t =
  List.map (fun (name, graph, scope) -> (name, graph t, scope)) entries

let structures t = materialize registry t
let backbone_structures t = materialize backbone_registry t

let spanning_backbone_structures t =
  List.filter
    (fun (_, _, scope) -> scope = `Spans_all)
    (backbone_structures t)

module G = Netgraph.Graph

type t = {
  points : Geometry.Point.t array;
  radius : float;
  jobs : int;
  udg : G.t;
  cds : Cds.t;
  ldel_icds : Ldel.t;
  ldel_icds_g : G.t;
  ldel_icds' : G.t;
  planar_csr : Netgraph.Csr.t;
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
             Netgraph.Csr.of_graph
               (Wireless.Udg.build_quasi
                  (Wireless.Rand.create seed)
                  points ~r_min ~r_max:radius)))
  in
  Shard.pipeline ~jobs:cfg.Config.jobs ?tiles ?priority:cfg.Config.priority
    ?udg points ~radius

let snapshot (cfg : Config.t) points =
  with_sink cfg.Config.sink (fun () -> pipeline cfg points)

(* The mutable-graph record, thawed from the sealed snapshot. *)
let thaw ~jobs (snap : Shard.snapshot) =
  let g = Netgraph.Csr.to_graph in
  let ldel_icds =
    Ldel.of_parts
      (Array.length snap.Shard.points)
      (Ldel.to_parts snap.Shard.icds snap.Shard.ldel)
  in
  {
    points = snap.Shard.points;
    radius = snap.Shard.radius;
    jobs = max 1 jobs;
    udg = g snap.Shard.udg;
    cds =
      {
        Cds.roles = snap.Shard.roles;
        connectors = Connectors.to_result snap.Shard.connectors;
        backbone = snap.Shard.backbone;
        cds = g snap.Shard.cds;
        cds' = g snap.Shard.cds';
        icds = g snap.Shard.icds;
        icds' = g snap.Shard.icds';
      };
    ldel_icds;
    ldel_icds_g = ldel_icds.Ldel.planar;
    ldel_icds' = g snap.Shard.pldel';
    planar_csr = snap.Shard.pldel;
  }

let run (cfg : Config.t) points =
  with_sink cfg.Config.sink (fun () ->
      Obs.span "backbone" (fun () ->
          let snap = pipeline cfg points in
          Obs.span "thaw" (fun () -> thaw ~jobs:cfg.Config.jobs snap)))

let build ?priority points ~radius =
  run { Config.default with Config.radius; priority } points

let ldel_full t = Ldel.build t.udg t.points ~radius:t.radius

(* The structure registry: Table I order, defined in exactly one
   place.  The four baseline rows span all nodes by construction; the
   backbone family carries the paper's spans-all / backbone-only
   distinction.  Everything that enumerates structures — [structures],
   the CLI's build/dump subcommands, the experiment sweeps, the bench
   extensions — derives from these lists. *)

let baseline_registry : (string * (t -> G.t) * [ `Spans_all | `Backbone_only ]) list
    =
  [
    ("UDG", (fun t -> t.udg), `Spans_all);
    ("RNG", (fun t -> Wireless.Proximity.rng_graph t.udg t.points), `Spans_all);
    ("GG", (fun t -> Wireless.Proximity.gabriel_graph t.udg t.points), `Spans_all);
    ("LDel", (fun t -> (ldel_full t).Ldel.planar), `Spans_all);
  ]

let backbone_registry : (string * (t -> G.t) * [ `Spans_all | `Backbone_only ]) list
    =
  [
    ("CDS", (fun t -> t.cds.Cds.cds), `Backbone_only);
    ("CDS'", (fun t -> t.cds.Cds.cds'), `Spans_all);
    ("ICDS", (fun t -> t.cds.Cds.icds), `Backbone_only);
    ("ICDS'", (fun t -> t.cds.Cds.icds'), `Spans_all);
    ("LDel(ICDS)", (fun t -> t.ldel_icds_g), `Backbone_only);
    ("LDel(ICDS')", (fun t -> t.ldel_icds'), `Spans_all);
  ]

let registry = baseline_registry @ backbone_registry

let names = List.map (fun (n, _, _) -> n) registry

let materialize entries t =
  List.map (fun (name, builder, scope) -> (name, builder t, scope)) entries

let structures t = materialize registry t
let backbone_structures t = materialize backbone_registry t

let spanning_backbone_structures t =
  materialize
    (List.filter (fun (_, _, scope) -> scope = `Spans_all) backbone_registry)
    t

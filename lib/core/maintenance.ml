module Csr = Netgraph.Csr
module P = Geometry.Point

let c_refreshes = Obs.counter "maintenance.refreshes"
let c_rebuilds = Obs.counter "maintenance.rebuilds"
let c_links_broken = Obs.counter "maintenance.links_broken"
let c_role_changes = Obs.counter "maintenance.role_changes"
let c_backbone_changes = Obs.counter "maintenance.backbone_changes"
let c_edge_changes = Obs.counter "maintenance.edge_changes"
let g_backbone_nodes = Obs.gauge "maintenance.backbone_nodes"
let g_backbone_edges = Obs.gauge "maintenance.backbone_edges"
let g_last_broken = Obs.gauge "maintenance.last_links_broken"

type stats = {
  role_changes : int;
  backbone_changes : int;
  edge_changes : int;
  links_broken : int;
}

let flush_stats_to_obs s =
  if !Obs.on then begin
    Obs.add c_links_broken s.links_broken;
    Obs.add c_role_changes s.role_changes;
    Obs.add c_backbone_changes s.backbone_changes;
    Obs.add c_edge_changes s.edge_changes;
    Obs.set_gauge g_last_broken (float_of_int s.links_broken)
  end

let flush_gauges (next : Backbone.t) =
  if !Obs.on then begin
    let nodes = ref 0 in
    Array.iter (fun b -> if b then incr nodes) next.Backbone.snap.Shard.backbone;
    Obs.set_gauge g_backbone_nodes (float_of_int !nodes);
    Obs.set_gauge g_backbone_edges
      (float_of_int (Csr.edge_count next.Backbone.snap.Shard.pldel'))
  end

let needs_refresh (prev : Backbone.t) positions =
  let s = prev.Backbone.snap in
  Csr.fold_edges s.Shard.pldel'
    (fun broken u v ->
      if P.dist positions.(u) positions.(v) > s.Shard.radius then broken + 1
      else broken)
    0

(* edges of [a] missing from [b] *)
let missing a b =
  Csr.fold_edges a (fun acc u v -> if Csr.mem_edge b u v then acc else acc + 1) 0

let diff_stats (prev : Backbone.t) (next : Backbone.t) ~links_broken =
  let p = prev.Backbone.snap and q = next.Backbone.snap in
  let n = Array.length p.Shard.points in
  let role_changes = ref 0 and backbone_changes = ref 0 in
  for u = 0 to n - 1 do
    if p.Shard.roles.(u) <> q.Shard.roles.(u) then incr role_changes;
    if p.Shard.backbone.(u) <> q.Shard.backbone.(u) then incr backbone_changes
  done;
  let edge_changes =
    missing p.Shard.pldel' q.Shard.pldel' + missing q.Shard.pldel' p.Shard.pldel'
  in
  {
    role_changes = !role_changes;
    backbone_changes = !backbone_changes;
    edge_changes;
    links_broken;
  }

let refresh (prev : Backbone.t) positions =
  Obs.span "maintenance.refresh" @@ fun () ->
  Obs.incr c_refreshes;
  let links_broken = needs_refresh prev positions in
  (* incumbent dominators get priority class 0, everyone else 1; ties
     still break by id, so this remains a greedy MIS under a total
     order and inherits every validity property *)
  let incumbent u =
    if prev.Backbone.snap.Shard.roles.(u) = Mis.Dominator then 0 else 1
  in
  let next =
    Backbone.build ~priority:incumbent positions
      ~radius:prev.Backbone.snap.Shard.radius
  in
  let stats = diff_stats prev next ~links_broken in
  flush_stats_to_obs stats;
  flush_gauges next;
  (next, stats)

let rebuild (prev : Backbone.t) positions =
  Obs.span "maintenance.rebuild" @@ fun () ->
  Obs.incr c_rebuilds;
  let links_broken = needs_refresh prev positions in
  let next = Backbone.build positions ~radius:prev.Backbone.snap.Shard.radius in
  let stats = diff_stats prev next ~links_broken in
  flush_stats_to_obs stats;
  flush_gauges next;
  (next, stats)

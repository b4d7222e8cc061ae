(* Routing demo: compare localized routing schemes on the constructed
   topologies — the workload GPSR-style protocols are built for.

     dune exec examples/routing_demo.exe

   For many random source/destination pairs we route with:
     - greedy forwarding on the raw UDG (fails at local minima),
     - greedy on the Gabriel graph (GPSR's classic planar substrate),
     - greedy + face recovery (GFG) on PLDel(V),
     - dominating-set-based routing over the planar backbone,
   and report delivery ratio and path quality.  Flooding (BFS) gives
   the optimal hop count for reference. *)

let () =
  let rng = Wireless.Rand.create 777L in
  let points, _ =
    Wireless.Deploy.connected_uniform rng ~n:150 ~side:250. ~radius:60.
      ~max_attempts:1000
  in
  let n = Array.length points in
  let bb =
    Core.Backbone.run
      { Core.Backbone.Config.default with Core.Backbone.Config.radius = 60. }
      points
  in
  let udg = bb.Core.Backbone.udg in
  let gg = Wireless.Proximity.gabriel_graph udg points in
  let pldel = (Core.Backbone.ldel_full bb).Core.Ldel.planar in

  Printf.printf "network: %d nodes, UDG %d edges, GG %d, PLDel %d, backbone %d\n\n"
    n
    (Netgraph.Graph.edge_count udg)
    (Netgraph.Graph.edge_count gg)
    (Netgraph.Graph.edge_count pldel)
    (Netgraph.Graph.edge_count bb.Core.Backbone.ldel_icds_g);

  (* routers read a topology through a view; wrap each graph once *)
  let udg_v = Netgraph.View.of_graph udg
  and gg_v = Netgraph.View.of_graph gg
  and pldel_v = Netgraph.View.of_graph pldel in
  let schemes =
    [
      ( "greedy / UDG",
        fun ~src ~dst -> Core.Routing.greedy udg_v points ~src ~dst );
      ( "greedy / GG",
        fun ~src ~dst -> Core.Routing.greedy gg_v points ~src ~dst );
      ("GFG / GG", fun ~src ~dst -> Core.Routing.gfg gg_v points ~src ~dst);
      ( "GFG / PLDel(V)",
        fun ~src ~dst -> Core.Routing.gfg pldel_v points ~src ~dst );
      ( "DS-based / backbone",
        fun ~src ~dst -> Core.Routing.hierarchical bb ~src ~dst );
    ]
  in
  Printf.printf "%-22s %9s %12s %12s\n" "scheme" "delivery" "len stretch"
    "hop stretch";
  List.iter
    (fun (name, router) ->
      let ev =
        Core.Routing.evaluate ~router ~base:udg_v points ~pairs:300
          (Wireless.Rand.create 1L)
      in
      Printf.printf "%-22s %4d/%-4d %12.3f %12.3f\n" name
        ev.Core.Routing.delivered ev.Core.Routing.pairs
        ev.Core.Routing.avg_length_stretch ev.Core.Routing.avg_hop_stretch)
    schemes;

  (* one concrete route, end to end *)
  print_newline ();
  let src = 0 and dst = n - 1 in
  (match Core.Routing.greedy udg_v points ~src ~dst with
  | Some p ->
    Printf.printf "greedy %d->%d delivered in %d hops\n" src dst
      (Netgraph.Traversal.path_hops p)
  | None -> Printf.printf "greedy %d->%d stuck at a local minimum\n" src dst);
  match Core.Routing.hierarchical bb ~src ~dst with
  | Some p ->
    let sp = Netgraph.Traversal.bfs udg src in
    Printf.printf
      "dominating-set routing %d->%d: %d hops (flooding optimum %d)\n" src dst
      (Netgraph.Traversal.path_hops p)
      sp.(dst)
  | None -> Printf.printf "backbone routing failed (unexpected)\n"

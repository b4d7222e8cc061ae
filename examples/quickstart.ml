(* Quickstart: build the planar backbone spanner for a random wireless
   network and look at its guarantees.

     dune exec examples/quickstart.exe

   This is the five-minute tour of the public API: deploy nodes, build
   every structure with [Core.Backbone.run] driven by a [Config], inspect
   the quality metrics, and route a packet over the planar backbone. *)

let () =
  (* 1. Deploy 100 nodes uniformly in a 200 x 200 region; redraw until
     the unit disk graph with transmission radius 60 is connected, as
     the paper's simulations do. *)
  let rng = Wireless.Rand.create 42L in
  let points, attempts =
    Wireless.Deploy.connected_uniform rng ~n:100 ~side:200. ~radius:60.
      ~max_attempts:1000
  in
  Printf.printf "deployed %d nodes (connected after %d attempt(s))\n"
    (Array.length points) attempts;

  (* 2. One call builds the whole hierarchy: clustering -> connectors
     -> CDS family -> localized Delaunay planarization.  The [Config]
     record is the front door; [partition = Auto] tiles large
     instances for the sharded CSR pipeline automatically, with
     bit-identical results.  (At million-node scale, prefer
     [Core.Backbone.snapshot], which returns sealed CSR structures and
     never materializes a mutable graph.) *)
  let bb =
    Core.Backbone.run
      { Core.Backbone.Config.default with Core.Backbone.Config.radius = 60. }
      points
  in

  let snap = bb.Core.Backbone.snap in
  let dominators = List.length (Core.Mis.dominators snap.Core.Shard.roles) in
  let backbone =
    Array.fold_left (fun k b -> if b then k + 1 else k) 0 snap.Core.Shard.backbone
  in
  Printf.printf "backbone: %d dominators, %d nodes total\n" dominators backbone;

  (* 3. The headline guarantees, checked live on this instance. *)
  let planar_backbone = bb.Core.Backbone.ldel_icds_g in
  Printf.printf "LDel(ICDS) is planar:      %b\n"
    (Netgraph.Planarity.is_planar planar_backbone points);
  Printf.printf "LDel(ICDS') spans all:     %b\n"
    (Netgraph.Csr.is_connected snap.Core.Shard.pldel');
  let d = Netgraph.Metrics.degree_stats planar_backbone in
  Printf.printf "backbone max degree:       %d (avg %.2f)\n"
    d.Netgraph.Metrics.deg_max d.Netgraph.Metrics.deg_avg;

  let s =
    Netgraph.Metrics.stretch_factors_v
      ~base:(Netgraph.View.of_csr snap.Core.Shard.udg)
      ~sub:(Netgraph.View.of_csr snap.Core.Shard.pldel')
      points
  in
  Printf.printf "length stretch:            avg %.3f  max %.3f\n"
    s.Netgraph.Metrics.len_avg s.Netgraph.Metrics.len_max;
  Printf.printf "hop stretch:               avg %.3f  max %.3f\n"
    s.Netgraph.Metrics.hop_avg s.Netgraph.Metrics.hop_max;

  (* 4. Sparseness: the backbone keeps a linear number of links. *)
  Printf.printf "UDG edges %d  ->  backbone edges %d\n"
    (Netgraph.Graph.edge_count bb.Core.Backbone.udg)
    (Netgraph.Graph.edge_count planar_backbone);

  (* 5. Route a packet the paper's way: greedy over the UDG, and from
     a local minimum GFG over the planar backbone. *)
  match Core.Routing.hierarchical snap ~src:0 ~dst:(Array.length points - 1) with
  | Some path ->
    Printf.printf "route 0 -> %d: %s (%d hops)\n"
      (Array.length points - 1)
      (String.concat " -> " (List.map string_of_int path))
      (Netgraph.Traversal.path_hops path)
  | None -> print_endline "no route (should not happen on a connected UDG)"

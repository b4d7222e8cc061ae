(* Topologies: regenerate the paper's Figures 6-7 — one unit disk
   graph and every derived structure — as edge-list CSVs plus ready-to-
   view SVG drawings (dominators as red squares, connectors blue,
   dominatees gray, matching the paper's markers).

     dune exec examples/topologies.exe [-- OUTPUT_DIR]

   Writes <dir>/<structure>.csv and <dir>/<structure>.svg, plus
   nodes.csv with "id,x,y,role".  Default directory: ./topologies. *)

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "topologies" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;

  (* same setting as Figure 6: 100 nodes, radius 60 *)
  let rng = Wireless.Rand.create 6L in
  let points, _ =
    Wireless.Deploy.connected_uniform rng ~n:100 ~side:200. ~radius:60.
      ~max_attempts:1000
  in
  let bb =
    Core.Backbone.run
      { Core.Backbone.Config.default with Core.Backbone.Config.radius = 60. }
      points
  in

  let roles = bb.Core.Backbone.snap.Core.Shard.roles in
  let backbone = bb.Core.Backbone.snap.Core.Shard.backbone in
  let oc = open_out (Filename.concat dir "nodes.csv") in
  Array.iteri
    (fun i (p : Geometry.Point.t) ->
      let role =
        if roles.(i) = Core.Mis.Dominator then "dominator"
        else if backbone.(i) then "connector"
        else "dominatee"
      in
      Printf.fprintf oc "%d,%.4f,%.4f,%s\n" i p.x p.y role)
    points;
  close_out oc;

  let slug = function
    | "CDS'" -> "cds-prime"
    | "ICDS'" -> "icds-prime"
    | "LDel(ICDS)" -> "ldel-icds"
    | "LDel(ICDS')" -> "ldel-icds-prime"
    | name -> String.lowercase_ascii name
  in
  let world =
    Geometry.Bbox.expand 5. (Geometry.Bbox.of_points (Array.to_list points))
  in
  let style_of i =
    if roles.(i) = Core.Mis.Dominator then Viz.Svg.dominator_style
    else if backbone.(i) then Viz.Svg.connector_style
    else Viz.Svg.dominatee_style
  in
  List.iter
    (fun (name, g, _) ->
      let file = Filename.concat dir (slug name ^ ".csv") in
      let oc = open_out file in
      Netgraph.Csr.iter_edges g (fun u v ->
          let (pu : Geometry.Point.t) = points.(u)
          and (pv : Geometry.Point.t) = points.(v) in
          Printf.fprintf oc "%.4f,%.4f,%.4f,%.4f\n" pu.x pu.y pv.x pv.y);
      close_out oc;
      let svg = Viz.Svg.create ~width:600 ~height:600 ~world in
      Viz.Svg.add_edges svg points g ~stroke:"#444444" ~stroke_width:0.8;
      Viz.Svg.add_nodes svg points ~style_of;
      Viz.Svg.add_label svg
        (Geometry.Point.make world.Geometry.Bbox.xmin world.Geometry.Bbox.ymax)
        name;
      let svg_file = Filename.concat dir (slug name ^ ".svg") in
      Viz.Svg.write_file svg svg_file;
      Printf.printf "%-14s %4d edges  -> %s, %s\n" name
        (Netgraph.Csr.edge_count g) file svg_file)
    (Core.Backbone.structures bb);
  Printf.printf "\nOpen the SVGs to see Figure 7; the CSVs feed any plotter.\n"

(* SVG rendering and the LDel^k extension. *)

module P = Geometry.Point
module G = Netgraph.Csr

let check = Alcotest.(check bool)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_svg_basic () =
  let pts = [| P.make 0. 0.; P.make 10. 0.; P.make 5. 8. |] in
  let world = Geometry.Bbox.of_points (Array.to_list pts) in
  let svg = Viz.Svg.create ~width:300 ~height:300 ~world in
  let g = G.of_edges 3 [ (0, 1); (1, 2) ] in
  Viz.Svg.add_edges svg pts g ~stroke:"black"
    ~stroke_width:1.;
  Viz.Svg.add_nodes svg pts ~style_of:(fun i ->
      if i = 0 then Viz.Svg.dominator_style else Viz.Svg.dominatee_style);
  Viz.Svg.add_path svg pts [ 0; 1; 2 ] ~stroke:"red" ~stroke_width:2.;
  Viz.Svg.add_label svg pts.(0) "sink";
  let s = Viz.Svg.to_string svg in
  check "svg root" true (contains ~needle:"<svg" s);
  check "two lines" true (contains ~needle:"<line" s);
  check "square for dominator" true (contains ~needle:"<rect" s);
  check "circles for others" true (contains ~needle:"<circle" s);
  check "route polyline" true (contains ~needle:"<polyline" s);
  check "label" true (contains ~needle:">sink</text>" s);
  check "closes" true (contains ~needle:"</svg>" s)

let test_svg_projection_flips_y () =
  (* the world origin must land at the bottom-left of the canvas *)
  let pts = [| P.make 0. 0.; P.make 0. 100. |] in
  let world = Geometry.Bbox.make ~xmin:0. ~ymin:0. ~xmax:100. ~ymax:100. in
  let svg = Viz.Svg.create ~width:100 ~height:100 ~world in
  Viz.Svg.add_label svg pts.(0) "low";
  Viz.Svg.add_label svg pts.(1) "high";
  let s = Viz.Svg.to_string svg in
  (* "low" (world y=0) must have a larger SVG y than "high" (world
     y=100); extract the y attribute of each label's line *)
  let y_of marker =
    let line =
      List.find
        (fun l -> contains ~needle:marker l)
        (String.split_on_char '\n' s)
    in
    Scanf.sscanf line "<text x=\"%_f\" y=\"%f\"" Fun.id
  in
  check "flip" true (y_of ">low<" > y_of ">high<")

let test_svg_writes_file () =
  let pts = [| P.make 0. 0.; P.make 1. 1. |] in
  let world = Geometry.Bbox.of_points (Array.to_list pts) in
  let svg = Viz.Svg.create ~width:50 ~height:50 ~world in
  Viz.Svg.add_edges svg pts
    ((G.of_edges 2 [ (0, 1) ]))
    ~stroke:"blue"
    ~stroke_width:0.5;
  let file = Filename.temp_file "geospanner" ".svg" in
  Viz.Svg.write_file svg file;
  let ic = open_in file in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove file;
  check "non-empty file" true (len > 100)

(* ---------------- Chart ---------------- *)

let test_chart_basic () =
  let s1 =
    { Viz.Chart.label = "alpha max"; points = [ (0., 1.); (1., 3.); (2., 2.) ] }
  in
  let s2 =
    { Viz.Chart.label = "beta avg"; points = [ (0., 0.5); (1., 1.); (2., 1.5) ] }
  in
  let svg =
    Viz.Chart.render ~title:"demo" ~xlabel:"x" ~ylabel:"y" [ s1; s2 ]
  in
  check "svg" true (contains ~needle:"<svg" svg);
  check "two polylines" true
    (List.length
       (List.filter
          (fun l -> contains ~needle:"<polyline" l)
          (String.split_on_char '\n' svg))
    = 2);
  check "legend labels" true
    (contains ~needle:"alpha max" svg && contains ~needle:"beta avg" svg);
  check "title" true (contains ~needle:">demo</text>" svg);
  check "axis labels" true (contains ~needle:">x</text>" svg)

let test_chart_empty_rejected () =
  check "no data" true
    (try
       ignore
         (Viz.Chart.render ~title:"t" ~xlabel:"x" ~ylabel:"y"
            [ { Viz.Chart.label = "e"; points = [] } ]);
       false
     with Invalid_argument _ -> true)

let test_chart_constant_series () =
  (* a flat line must not divide by zero *)
  let s = { Viz.Chart.label = "const"; points = [ (1., 5.); (2., 5.) ] } in
  let svg = Viz.Chart.render ~title:"flat" ~xlabel:"x" ~ylabel:"y" [ s ] in
  check "renders" true (contains ~needle:"</svg>" svg)

(* ---------------- LDel^k ---------------- *)

let random_instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  (pts, Wireless.Udg.build pts ~radius)

let test_ldel_k1_equals_build () =
  let pts, udg = random_instance 500L 70 50. in
  let l1 = Tgraph.ldel_build udg pts ~radius:50. in
  let lk = Tgraph.ldel_build_k udg pts ~radius:50. ~k:1 in
  check "same triangles" true (l1.Tgraph.triangles = lk.Tgraph.triangles);
  check "same planar graph" true
    (G.equal l1.Tgraph.planar lk.Tgraph.planar)

let test_ldel_k2_planar_without_removal () =
  (* Li et al.: LDel^k is planar outright for k >= 2 — the
     planarization pass must remove nothing *)
  for seed = 510 to 515 do
    let pts, udg = random_instance (Int64.of_int seed) 80 50. in
    let l2 = Tgraph.ldel_build_k udg pts ~radius:50. ~k:2 in
    check "ldel2 planar before removal" true
      (Netgraph.Planarity.is_planar l2.Tgraph.ldel1 pts);
    check "nothing removed" true
      (List.length l2.Tgraph.kept_triangles
      = List.length l2.Tgraph.triangles)
  done

let test_ldel_k_monotone () =
  (* larger k sees more blockers, so accepts fewer (or equal)
     triangles: LDel^{k+1} triangles ⊆ LDel^k triangles *)
  let pts, udg = random_instance 520L 80 50. in
  let l1 = Tgraph.ldel_build_k udg pts ~radius:50. ~k:1 in
  let l2 = Tgraph.ldel_build_k udg pts ~radius:50. ~k:2 in
  let l3 = Tgraph.ldel_build_k udg pts ~radius:50. ~k:3 in
  let module TS = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end) in
  let s1 = TS.of_list l1.Tgraph.triangles in
  let s2 = TS.of_list l2.Tgraph.triangles in
  let s3 = TS.of_list l3.Tgraph.triangles in
  check "LDel2 ⊆ LDel1" true (TS.subset s2 s1);
  check "LDel3 ⊆ LDel2" true (TS.subset s3 s2)

let test_ldel_k2_contains_udel () =
  (* unit Delaunay triangles survive any k *)
  let pts, udg = random_instance 521L 70 50. in
  let l2 = Tgraph.ldel_build_k udg pts ~radius:50. ~k:2 in
  let udel = Wireless.Proximity.udel pts ~radius:50. in
  check "UDel ⊆ LDel2" true (Tgraph.is_subgraph udel l2.Tgraph.ldel1);
  check "LDel2 connected" true
    (Netgraph.Csr.is_connected l2.Tgraph.planar)

let test_ldel_k_invalid () =
  let pts, udg = random_instance 522L 20 50. in
  check "k = 0 rejected" true
    (try
       ignore (Core.Ldel.build_k udg pts ~radius:50. ~k:0);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "viz.svg",
      [
        Alcotest.test_case "element generation" `Quick test_svg_basic;
        Alcotest.test_case "y-flip projection" `Quick
          test_svg_projection_flips_y;
        Alcotest.test_case "file output" `Quick test_svg_writes_file;
      ] );
    ( "viz.chart",
      [
        Alcotest.test_case "basic chart" `Quick test_chart_basic;
        Alcotest.test_case "empty rejected" `Quick test_chart_empty_rejected;
        Alcotest.test_case "constant series" `Quick test_chart_constant_series;
      ] );
    ( "core.ldel_k",
      [
        Alcotest.test_case "k=1 equals build" `Quick test_ldel_k1_equals_build;
        Alcotest.test_case "k=2 planar without removal" `Quick
          test_ldel_k2_planar_without_removal;
        Alcotest.test_case "monotone in k" `Quick test_ldel_k_monotone;
        Alcotest.test_case "UDel ⊆ LDel2, connected" `Quick
          test_ldel_k2_contains_udel;
        Alcotest.test_case "invalid k" `Quick test_ldel_k_invalid;
      ] );
  ]

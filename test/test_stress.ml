(* Stress and adversarial-degeneracy tests: exact predicates under
   cocircular/collinear inputs, the Delaunay builder on grids, the
   simulator under randomized protocols, and scale smoke tests. *)

module P = Geometry.Point
module Pred = Geometry.Predicates
module DT = Delaunay.Triangulation
module G = Netgraph.Csr
module E = Distsim.Engine

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- exact predicates under degeneracy ---------------- *)

let test_orient_grid_exactness () =
  (* every triple of a small integer grid must classify exactly *)
  let pts = ref [] in
  for x = 0 to 4 do
    for y = 0 to 4 do
      pts := P.make (float_of_int x) (float_of_int y) :: !pts
    done
  done;
  let arr = Array.of_list !pts in
  let n = Array.length arr in
  let exact a b c =
    (* integer arithmetic ground truth *)
    let xi (p : P.t) = int_of_float p.x and yi (p : P.t) = int_of_float p.y in
    let det =
      ((xi b - xi a) * (yi c - yi a)) - ((yi b - yi a) * (xi c - xi a))
    in
    if det > 0 then Pred.Ccw else if det < 0 then Pred.Cw else Pred.Collinear
  in
  let mism = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        if i <> j && j <> k && i <> k then
          if Pred.orient2d arr.(i) arr.(j) arr.(k) <> exact arr.(i) arr.(j) arr.(k)
          then incr mism
      done
    done
  done;
  checki "no misclassifications" 0 !mism

let test_incircle_grid_exactness () =
  (* integer grids make the 4x4 incircle determinant computable in
     exact 64-bit arithmetic — a self-contained ground truth for the
     exact fallback (this is the oracle that caught a real bug in the
     expansion arithmetic during development) *)
  let k = 4 in
  let pts =
    Array.init (k * k) (fun i ->
        P.make (float_of_int (i mod k)) (float_of_int (i / k)))
  in
  let xi (p : P.t) = int_of_float p.x and yi (p : P.t) = int_of_float p.y in
  let exact_inside a b c d =
    let adx = xi a - xi d and ady = yi a - yi d in
    let bdx = xi b - xi d and bdy = yi b - yi d in
    let cdx = xi c - xi d and cdy = yi c - yi d in
    let alift = (adx * adx) + (ady * ady) in
    let blift = (bdx * bdx) + (bdy * bdy) in
    let clift = (cdx * cdx) + (cdy * cdy) in
    let det =
      (alift * ((bdx * cdy) - (bdy * cdx)))
      + (blift * ((cdx * ady) - (cdy * adx)))
      + (clift * ((adx * bdy) - (ady * bdx)))
    in
    let o =
      ((xi b - xi a) * (yi c - yi a)) - ((yi b - yi a) * (xi c - xi a))
    in
    o <> 0 && det * o > 0
  in
  let n = Array.length pts in
  let mism = ref 0 in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      for c = b + 1 to n - 1 do
        for d = 0 to n - 1 do
          if d <> a && d <> b && d <> c then
            if
              Pred.incircle pts.(a) pts.(b) pts.(c) pts.(d)
              <> exact_inside pts.(a) pts.(b) pts.(c) pts.(d)
            then incr mism
        done
      done
    done
  done;
  checki "incircle exact on grid quadruples" 0 !mism

let test_incircle_translated_far () =
  (* the incircle filter must survive large common offsets where the
     naive determinant is pure cancellation noise *)
  let offsets = [ 0.; 1e3; 1e6; 1e7 ] in
  List.iter
    (fun t ->
      let p x y = P.make (x +. t) (y +. t) in
      let a = p 0. 0. and b = p 2. 0. and c = p 0. 2. in
      check "inside survives shift" true (Pred.incircle a b c (p 1. 1.));
      check "outside survives shift" false (Pred.incircle a b c (p 3. 3.));
      check "cocircular survives shift" false (Pred.incircle a b c (p 2. 2.)))
    offsets

let test_delaunay_perfect_grid () =
  (* a k x k integer grid: masses of exactly-cocircular quadruples; the
     builder must still produce a valid (if non-unique) Delaunay
     triangulation with correct counts *)
  List.iter
    (fun k ->
      let pts =
        Array.init (k * k) (fun i ->
            P.make (float_of_int (i mod k)) (float_of_int (i / k)))
      in
      let t = DT.triangulate pts in
      let tris = DT.triangles t in
      check "delaunay (non-strict)" true (DT.is_delaunay pts tris);
      (* grid hull is the boundary: 4(k-1) vertices; triangle count
         2(k-1)^2 regardless of diagonal choices *)
      checki "triangles" (2 * (k - 1) * (k - 1)) (List.length tris);
      checki "hull" (4 * (k - 1)) (List.length (DT.hull t)))
    [ 3; 5; 8 ]

let test_delaunay_two_clusters_far_apart () =
  (* extreme aspect ratio: two tight clusters separated by 1e6 *)
  let rng = Wireless.Rand.create 940L in
  let cluster cx =
    List.init 20 (fun _ ->
        P.make (cx +. Wireless.Rand.float rng 1.) (Wireless.Rand.float rng 1.))
  in
  let pts = Array.of_list (cluster 0. @ cluster 1e6) in
  let t = DT.triangulate pts in
  check "still delaunay" true (DT.is_delaunay pts (DT.triangles t))

let test_delaunay_circle_points () =
  (* many nearly-cocircular points on one circle *)
  let n = 30 in
  let pts =
    Array.init n (fun i ->
        let a = 2. *. Float.pi *. float_of_int i /. float_of_int n in
        P.make (cos a) (sin a))
  in
  let t = DT.triangulate pts in
  let tris = DT.triangles t in
  check "delaunay" true (DT.is_delaunay pts tris);
  (* all points on the hull: n-2 triangles *)
  checki "fan size" (n - 2) (List.length tris);
  checki "hull is everyone" n (List.length (DT.hull t))

(* ---------------- simulator fuzz ---------------- *)

let test_engine_random_protocols_terminate () =
  (* randomized finite-chatter protocols: every node broadcasts a
     random number of messages over its first few rounds, then goes
     quiet; the engine must always reach quiescence with exact
     counts *)
  let rng = Wireless.Rand.create 941L in
  for _ = 1 to 20 do
    let n = 2 + Wireless.Rand.int rng 30 in
    let edges = ref [] in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if Wireless.Rand.float rng 1. < 0.2 then edges := (u, v) :: !edges
      done
    done;
    let g = G.of_edges n !edges in
    let plan =
      Array.init n (fun _ -> Wireless.Rand.int rng 4 (* msgs in round 0 *))
    in
    let proto =
      {
        E.init = (fun _ _ -> 0);
        E.on_round =
          (fun ctx st inbox ->
            if ctx.E.round = 0 then
              for _ = 1 to plan.(ctx.E.me) do
                ctx.E.broadcast ()
              done;
            st + List.length inbox);
      }
    in
    let states, stats =
      E.run ~classify:(fun () -> "m") g proto
    in
    checki "sent = plan" (Array.fold_left ( + ) 0 plan) (E.total_sent stats);
    (* total receptions = sum over senders of their degree x msgs *)
    let expected_rx = ref 0 in
    Array.iteri (fun u k -> expected_rx := !expected_rx + (k * G.degree g u)) plan;
    checki "received all" !expected_rx (Array.fold_left ( + ) 0 states)
  done

(* ---------------- scale smoke ---------------- *)

let test_pipeline_scale_500 () =
  (* the Figure 11/12 workload size: one full pipeline at n = 500 *)
  let rng = Wireless.Rand.create 942L in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n:500 ~side:200. ~radius:30.
      ~max_attempts:200
  in
  let bb = Core.Backbone.build pts ~radius:30. in
  check "planar at scale" true
    (Netgraph.Planarity.is_planar bb.Core.Backbone.ldel_icds_g pts);
  check "spans at scale" true
    (Netgraph.Csr.is_connected bb.Core.Backbone.snap.Core.Shard.pldel');
  let pr = Core.Protocol.run pts ~radius:30. in
  check "protocol agrees at scale" true
    (G.equal pr.Core.Protocol.ldel_graph bb.Core.Backbone.ldel_icds_g);
  check "O(1) messages at scale" true
    (E.max_sent (Core.Protocol.ldel_stats pr) <= 120)

let suites =
  [
    ( "stress.predicates",
      [
        Alcotest.test_case "orient2d exact on grid triples" `Quick
          test_orient_grid_exactness;
        Alcotest.test_case "incircle exact on grid quadruples" `Quick
          test_incircle_grid_exactness;
        Alcotest.test_case "incircle under large offsets" `Quick
          test_incircle_translated_far;
      ] );
    ( "stress.delaunay",
      [
        Alcotest.test_case "perfect grid (cocircular)" `Quick
          test_delaunay_perfect_grid;
        Alcotest.test_case "distant clusters" `Quick
          test_delaunay_two_clusters_far_apart;
        Alcotest.test_case "points on a circle" `Quick
          test_delaunay_circle_points;
      ] );
    ( "stress.engine",
      [
        Alcotest.test_case "random protocols terminate exactly" `Quick
          test_engine_random_protocols_terminate;
      ] );
    ( "stress.scale",
      [ Alcotest.test_case "full pipeline at n=500" `Slow test_pipeline_scale_500 ] );
  ]

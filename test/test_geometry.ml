(* Unit tests for the geometry substrate: points, predicates,
   segments, circles, hulls. *)

module P = Geometry.Point
module Pred = Geometry.Predicates
module Seg = Geometry.Segment
module C = Geometry.Circle

let check = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))
let p = P.make

(* ---------------- Point ---------------- *)

let test_point_arith () =
  let a = p 1. 2. and b = p 3. (-1.) in
  check "add" true (P.equal (P.add a b) (p 4. 1.));
  check "sub" true (P.equal (P.sub a b) (p (-2.) 3.));
  check "scale" true (P.equal (P.scale 2. a) (p 2. 4.));
  check "neg" true (P.equal (P.neg a) (p (-1.) (-2.)));
  checkf "dot" 1. (P.dot a b);
  checkf "cross" (-7.) (P.cross a b)

let test_point_dist () =
  checkf "dist 3-4-5" 5. (P.dist (p 0. 0.) (p 3. 4.));
  checkf "dist2" 25. (P.dist2 (p 0. 0.) (p 3. 4.));
  checkf "norm" (sqrt 2.) (P.norm (p 1. 1.));
  check "midpoint" true (P.equal (P.midpoint (p 0. 0.) (p 2. 4.)) (p 1. 2.))

let test_point_lerp () =
  check "lerp 0" true (P.equal (P.lerp (p 1. 1.) (p 3. 5.) 0.) (p 1. 1.));
  check "lerp 1" true (P.equal (P.lerp (p 1. 1.) (p 3. 5.) 1.) (p 3. 5.));
  check "lerp half" true (P.equal (P.lerp (p 1. 1.) (p 3. 5.) 0.5) (p 2. 3.))

let test_point_angle () =
  checkf "right angle" (Float.pi /. 2.) (P.angle (p 1. 0.) (p 0. 0.) (p 0. 1.));
  checkf "straight" Float.pi (P.angle (p (-1.) 0.) (p 0. 0.) (p 1. 0.));
  checkf "degenerate-same-ray" 0. (P.angle (p 1. 0.) (p 0. 0.) (p 2. 0.))

let test_point_rotate () =
  let q = P.rotate (Float.pi /. 2.) (p 1. 0.) in
  check "rotate 90" true (P.close q (p 0. 1.));
  let r = P.rotate_about (p 1. 1.) Float.pi (p 2. 1.) in
  check "rotate about" true (P.close r (p 0. 1.))

let test_point_compare () =
  check "lex x" true (P.compare (p 0. 9.) (p 1. 0.) < 0);
  check "lex y" true (P.compare (p 1. 0.) (p 1. 1.) < 0);
  check "eq" true (P.compare (p 1. 1.) (p 1. 1.) = 0);
  check "close eps" true (P.close ~eps:1e-3 (p 0. 0.) (p 1e-4 (-1e-4)));
  check "not close" false (P.close ~eps:1e-6 (p 0. 0.) (p 1e-4 0.))

(* ---------------- Predicates ---------------- *)

let test_orient_basic () =
  check "ccw" true (Pred.orient2d (p 0. 0.) (p 1. 0.) (p 0. 1.) = Pred.Ccw);
  check "cw" true (Pred.orient2d (p 0. 0.) (p 0. 1.) (p 1. 0.) = Pred.Cw);
  check "collinear" true
    (Pred.orient2d (p 0. 0.) (p 1. 1.) (p 2. 2.) = Pred.Collinear)

let test_orient_degenerate_scale () =
  (* near-collinear points separated by tiny perturbations: the exact
     fallback must get the sign right where the float determinant
     underflows into noise *)
  let a = p 0.1 0.1 and b = p 0.3 0.3 in
  let c_above = p 0.2 (0.2 +. 1e-15) in
  let c_below = p 0.2 (0.2 -. 1e-15) in
  let c_on = p 0.2 0.2 in
  check "tiny above" true (Pred.orient2d a b c_above = Pred.Ccw);
  check "tiny below" true (Pred.orient2d a b c_below = Pred.Cw);
  check "exactly on" true (Pred.orient2d a b c_on = Pred.Collinear)

let test_orient_translation_invariance () =
  (* orientation decisions survive a large common offset *)
  let t = 1e6 in
  let sh q = p (q.P.x +. t) (q.P.y +. t) in
  let a = p 0. 0. and b = p 1. 0. and c = p 0.5 1e-9 in
  check "shifted still ccw" true
    (Pred.orient2d (sh a) (sh b) (sh c) = Pred.Ccw)

let test_incircle_basic () =
  let a = p 0. 0. and b = p 2. 0. and c = p 0. 2. in
  check "center inside" true (Pred.incircle a b c (p 1. 1.));
  check "far outside" false (Pred.incircle a b c (p 10. 10.));
  (* (2,2) is on the circumcircle of this right triangle *)
  check "cocircular boundary" false (Pred.incircle a b c (p 2. 2.))

let test_incircle_orientation_invariance () =
  let a = p 0. 0. and b = p 2. 0. and c = p 0. 2. in
  check "cw triangle same answer" true (Pred.incircle a c b (p 1. 1.));
  check "cw triangle same answer out" false (Pred.incircle a c b (p 5. 5.))

let test_incircle_near_cocircular () =
  (* unit circle through 4 near-cocircular points: d just inside /
     just outside *)
  let a = p 1. 0. and b = p 0. 1. and c = p (-1.) 0. in
  check "just inside" true (Pred.incircle a b c (p 0. (-0.999999999999)));
  check "just outside" false (Pred.incircle a b c (p 0. (-1.000000000001)))

let test_between () =
  check "midpoint between" true (Pred.between (p 0. 0.) (p 2. 2.) (p 1. 1.));
  check "endpoint counts" true (Pred.between (p 0. 0.) (p 2. 2.) (p 0. 0.));
  check "beyond" false (Pred.between (p 0. 0.) (p 2. 2.) (p 3. 3.));
  check "off line" false (Pred.between (p 0. 0.) (p 2. 2.) (p 1. 1.5))

(* ---------------- Segment ---------------- *)

let seg a b = Seg.make a b

let test_segment_proper_cross () =
  let s1 = seg (p 0. 0.) (p 2. 2.) and s2 = seg (p 0. 2.) (p 2. 0.) in
  check "X crossing" true (Seg.properly_intersect s1 s2);
  let s3 = seg (p 0. 0.) (p 1. 0.) and s4 = seg (p 2. 0.) (p 3. 0.) in
  check "disjoint collinear" false (Seg.properly_intersect s3 s4)

let test_segment_touch_not_proper () =
  let s1 = seg (p 0. 0.) (p 2. 0.) in
  (* shares endpoint *)
  check "shared endpoint" false
    (Seg.properly_intersect s1 (seg (p 2. 0.) (p 3. 1.)));
  (* T-junction: endpoint on interior *)
  check "t-junction" false (Seg.properly_intersect s1 (seg (p 1. 0.) (p 1. 1.)));
  (* but both count as closed intersection *)
  check "shared endpoint closed" true (Seg.intersect s1 (seg (p 2. 0.) (p 3. 1.)));
  check "t-junction closed" true (Seg.intersect s1 (seg (p 1. 0.) (p 1. 1.)))

let test_segment_intersection_point () =
  let s1 = seg (p 0. 0.) (p 2. 2.) and s2 = seg (p 0. 2.) (p 2. 0.) in
  (match Seg.intersection_point s1 s2 with
  | Some q -> check "crossing at center" true (P.close q (p 1. 1.))
  | None -> Alcotest.fail "expected intersection");
  check "parallel none" true
    (Seg.intersection_point s1 (seg (p 0. 1.) (p 2. 3.)) = None)

let test_segment_dist () =
  let s = seg (p 0. 0.) (p 2. 0.) in
  checkf "above middle" 1. (Seg.dist_to_point s (p 1. 1.));
  checkf "beyond end" (sqrt 2.) (Seg.dist_to_point s (p 3. 1.));
  checkf "on segment" 0. (Seg.dist_to_point s (p 0.5 0.));
  checkf "degenerate segment" 5. (Seg.dist_to_point (seg (p 0. 0.) (p 0. 0.)) (p 3. 4.))

let test_segment_length () =
  checkf "length" (sqrt 8.) (Seg.length (seg (p 0. 0.) (p 2. 2.)));
  check "midpoint" true (P.equal (Seg.midpoint (seg (p 0. 0.) (p 2. 2.))) (p 1. 1.))

(* ---------------- Circle ---------------- *)

let test_circumcircle () =
  (match C.circumcircle (p 0. 0.) (p 2. 0.) (p 0. 2.) with
  | Some c ->
    check "center" true (P.close c.C.center (p 1. 1.));
    checkf "radius" (sqrt 2.) c.C.radius
  | None -> Alcotest.fail "expected circumcircle");
  check "collinear none" true
    (C.circumcircle (p 0. 0.) (p 1. 1.) (p 2. 2.) = None)

let test_diametral () =
  let c = C.diametral (p 0. 0.) (p 2. 0.) in
  check "center" true (P.close c.C.center (p 1. 0.));
  checkf "radius" 1. c.C.radius;
  check "in (angle criterion)" true (C.in_diametral (p 0. 0.) (p 2. 0.) (p 1. 0.5));
  check "out" false (C.in_diametral (p 0. 0.) (p 2. 0.) (p 2. 1.));
  (* boundary: right angle exactly on the circle *)
  check "boundary excluded" false (C.in_diametral (p 0. 0.) (p 2. 0.) (p 1. 1.));
  check "endpoint excluded" false (C.in_diametral (p 0. 0.) (p 2. 0.) (p 0. 0.))

let test_lune () =
  let a = p 0. 0. and b = p 2. 0. in
  check "center of lune" true (C.in_lune a b (p 1. 0.5));
  check "near a outside" false (C.in_lune a b (p (-0.5) 0.));
  (* point at distance exactly |ab| from a: boundary, excluded *)
  check "boundary excluded" false (C.in_lune a b (p 0. 2.));
  check "endpoint excluded" false (C.in_lune a b a)

let test_circle_contains () =
  let c = C.make (p 0. 0.) 1. in
  check "inside" true (C.contains c (p 0.5 0.));
  check "boundary closed" true (C.contains c (p 1. 0.));
  check "boundary strict" false (C.contains ~strict:true c (p 1. 0.));
  check "outside" false (C.contains c (p 1.1 0.));
  check "intersects" true (C.intersects c (C.make (p 1.5 0.) 1.));
  check "disjoint" false (C.intersects c (C.make (p 3. 0.) 1.))

(* ---------------- Hull ---------------- *)

let test_hull_square () =
  let pts =
    [ p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1.; p 0.5 0.5; p 0.2 0.8 ]
  in
  let h = Geometry.Hull.convex_hull pts in
  Alcotest.(check int) "4 corners" 4 (List.length h);
  check "ccw" true (Geometry.Hull.is_convex h);
  check "interior" true (Geometry.Hull.contains_point h (p 0.5 0.5));
  check "exterior" false (Geometry.Hull.contains_point h (p 1.5 0.5))

let test_hull_collinear () =
  let h = Geometry.Hull.convex_hull [ p 0. 0.; p 1. 1.; p 2. 2.; p 3. 3. ] in
  (* all collinear: extremes only *)
  Alcotest.(check int) "segment hull" 2 (List.length h)

let test_hull_duplicates () =
  let h = Geometry.Hull.convex_hull [ p 0. 0.; p 0. 0.; p 1. 0.; p 0. 1. ] in
  Alcotest.(check int) "triangle" 3 (List.length h)

let test_hull_area () =
  let square = [ p 0. 0.; p 2. 0.; p 2. 2.; p 0. 2. ] in
  checkf "ccw positive" 4. (Geometry.Hull.signed_area square);
  checkf "cw negative" (-4.) (Geometry.Hull.signed_area (List.rev square))

let test_hull_random_contains_all () =
  let rng = Wireless.Rand.create 5L in
  for _ = 1 to 20 do
    let pts =
      List.init 40 (fun _ ->
          p (Wireless.Rand.float rng 10.) (Wireless.Rand.float rng 10.))
    in
    let h = Geometry.Hull.convex_hull pts in
    check "hull is convex" true (Geometry.Hull.is_convex h);
    List.iter
      (fun q -> check "contains input" true (Geometry.Hull.contains_point h q))
      pts
  done

(* ---------------- Bbox ---------------- *)

let test_bbox () =
  let b = Geometry.Bbox.of_points [ p 1. 2.; p (-1.) 5.; p 0. 0. ] in
  checkf "width" 2. (Geometry.Bbox.width b);
  checkf "height" 5. (Geometry.Bbox.height b);
  check "contains" true (Geometry.Bbox.contains b (p 0. 3.));
  check "excludes" false (Geometry.Bbox.contains b (p 2. 3.));
  let e = Geometry.Bbox.expand 1. b in
  check "expanded contains" true (Geometry.Bbox.contains e (p 1.5 3.));
  let box x0 y0 x1 y1 = Geometry.Bbox.make ~xmin:x0 ~ymin:y0 ~xmax:x1 ~ymax:y1 in
  check "overlaps" true (Geometry.Bbox.overlaps b (box 0.5 4. 3. 9.));
  check "touching overlaps" true (Geometry.Bbox.overlaps b (box 1. 5. 2. 6.));
  check "disjoint in x" false (Geometry.Bbox.overlaps b (box 1.5 0. 3. 1.));
  check "disjoint in y" false (Geometry.Bbox.overlaps (box 0.5 5.5 3. 9.) b);
  check "empty invalid" true
    (try
       ignore (Geometry.Bbox.of_points []);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "geometry.point",
      [
        Alcotest.test_case "arithmetic" `Quick test_point_arith;
        Alcotest.test_case "distances" `Quick test_point_dist;
        Alcotest.test_case "lerp" `Quick test_point_lerp;
        Alcotest.test_case "angles" `Quick test_point_angle;
        Alcotest.test_case "rotation" `Quick test_point_rotate;
        Alcotest.test_case "comparison" `Quick test_point_compare;
      ] );
    ( "geometry.predicates",
      [
        Alcotest.test_case "orient basic" `Quick test_orient_basic;
        Alcotest.test_case "orient degenerate" `Quick
          test_orient_degenerate_scale;
        Alcotest.test_case "orient translated" `Quick
          test_orient_translation_invariance;
        Alcotest.test_case "incircle basic" `Quick test_incircle_basic;
        Alcotest.test_case "incircle orientation" `Quick
          test_incircle_orientation_invariance;
        Alcotest.test_case "incircle near-cocircular" `Quick
          test_incircle_near_cocircular;
        Alcotest.test_case "between" `Quick test_between;
      ] );
    ( "geometry.segment",
      [
        Alcotest.test_case "proper crossing" `Quick test_segment_proper_cross;
        Alcotest.test_case "touching is not proper" `Quick
          test_segment_touch_not_proper;
        Alcotest.test_case "intersection point" `Quick
          test_segment_intersection_point;
        Alcotest.test_case "distance to point" `Quick test_segment_dist;
        Alcotest.test_case "length/midpoint" `Quick test_segment_length;
      ] );
    ( "geometry.circle",
      [
        Alcotest.test_case "circumcircle" `Quick test_circumcircle;
        Alcotest.test_case "diametral (Gabriel) disk" `Quick test_diametral;
        Alcotest.test_case "lune (RNG) region" `Quick test_lune;
        Alcotest.test_case "containment" `Quick test_circle_contains;
      ] );
    ( "geometry.hull",
      [
        Alcotest.test_case "square" `Quick test_hull_square;
        Alcotest.test_case "collinear" `Quick test_hull_collinear;
        Alcotest.test_case "duplicates" `Quick test_hull_duplicates;
        Alcotest.test_case "signed area" `Quick test_hull_area;
        Alcotest.test_case "random containment" `Quick
          test_hull_random_contains_all;
      ] );
    ( "geometry.bbox",
      [ Alcotest.test_case "construction and queries" `Quick test_bbox ] );
  ]

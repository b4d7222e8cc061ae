type t = { a : Point.t; b : Point.t }

let make a b = { a; b }
let length s = Point.dist s.a s.b
let midpoint s = Point.midpoint s.a s.b
let contains s p = Predicates.between s.a s.b p

(* [o3]/[o4] are only evaluated once [o1]/[o2] are strictly opposite *)
let properly_intersect s1 s2 =
  Predicates.opposite
    (Predicates.orient2d s1.a s1.b s2.a)
    (Predicates.orient2d s1.a s1.b s2.b)
  && Predicates.opposite
       (Predicates.orient2d s2.a s2.b s1.a)
       (Predicates.orient2d s2.a s2.b s1.b)

let intersect s1 s2 =
  properly_intersect s1 s2
  || contains s1 s2.a || contains s1 s2.b
  || contains s2 s1.a || contains s2 s1.b

let intersection_point s1 s2 =
  if not (properly_intersect s1 s2) then None
  else
    let r = Point.sub s1.b s1.a in
    let s = Point.sub s2.b s2.a in
    let denom = Point.cross r s in
    if Float.equal denom 0. then None
    else
      let t = Point.cross (Point.sub s2.a s1.a) s /. denom in
      Some (Point.add s1.a (Point.scale t r))

let dist_to_point s p =
  let v = Point.sub s.b s.a in
  let len2 = Point.norm2 v in
  if Float.equal len2 0. then Point.dist s.a p
  else
    let t = Point.dot (Point.sub p s.a) v /. len2 in
    let t = Float.max 0. (Float.min 1. t) in
    Point.dist p (Point.add s.a (Point.scale t v))

let pp fmt s = Format.fprintf fmt "[%a -- %a]" Point.pp s.a Point.pp s.b

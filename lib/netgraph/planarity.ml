(* Written against the read-only View; Graph-typed adapters at the
   bottom keep existing callers compiling. *)

let segments g (points : Geometry.Point.t array) =
  List.map
    (fun (u, v) -> ((u, v), Geometry.Segment.make points.(u) points.(v)))
    (View.edges g)

let share_endpoint ((u1 : int), v1) (u2, v2) =
  u1 = u2 || u1 = v2 || v1 = u2 || v1 = v2

let crossing_pairs_v g points =
  let segs = Array.of_list (segments g points) in
  let m = Array.length segs in
  let acc = ref [] in
  for i = 0 to m - 1 do
    for j = i + 1 to m - 1 do
      let e1, s1 = segs.(i) and e2, s2 = segs.(j) in
      if
        (not (share_endpoint e1 e2))
        && Geometry.Segment.properly_intersect s1 s2
      then acc := (e1, e2) :: !acc
    done
  done;
  List.rev !acc

let crossing_count_v g points = List.length (crossing_pairs_v g points)

let is_planar_v g points =
  (* Same pairwise scan as [crossing_pairs] but with early exit. *)
  let segs = Array.of_list (segments g points) in
  let m = Array.length segs in
  let rec outer i =
    if i >= m then true
    else
      let rec inner j =
        if j >= m then true
        else
          let e1, s1 = segs.(i) and e2, s2 = segs.(j) in
          if
            (not (share_endpoint e1 e2))
            && Geometry.Segment.properly_intersect s1 s2
          then false
          else inner (j + 1)
      in
      if inner (i + 1) then outer (i + 1) else false
  in
  outer 0

let euler_bound_ok_v g =
  let n = View.node_count g in
  n < 3 || View.edge_count g <= (3 * n) - 6

(* ------------- legacy Graph-typed adapters ------------- *)

let crossing_pairs g points = crossing_pairs_v (View.of_graph g) points
let crossing_count g points = crossing_count_v (View.of_graph g) points
let is_planar g points = is_planar_v (View.of_graph g) points
let euler_bound_ok g = euler_bound_ok_v (View.of_graph g)

module G = Netgraph.Graph
module P = Geometry.Point
module Pred = Geometry.Predicates

type t = {
  ldel1 : G.t;
  planar : G.t;
  gabriel_edges : (int * int) list;
  triangles : (int * int * int) list;
  kept_triangles : (int * int * int) list;
}

let norm3 ((a : int), (b : int), (c : int)) =
  let lo = Int.min a b and hi = Int.max a b in
  if c >= hi then (lo, hi, c) else if c >= lo then (lo, c, hi) else (c, lo, hi)

(* What one node computes in Algorithm 2 from purely local data: the
   Delaunay triangulation of itself plus its 1-hop neighbors, filtered
   to the triangles it participates in.  Both the centralized builder
   and the distributed protocol call this with the same inputs, which
   is what makes their outputs identical. *)
let local_triangles_of_neighborhood ~me ~me_pos ~nbrs =
  match nbrs with
  | [] | [ _ ] -> []
  | _ ->
    let locals = Array.of_list ((me, me_pos) :: nbrs) in
    let local_pts = Array.map snd locals in
    let dt = Delaunay.Triangulation.triangulate local_pts in
    List.map
      (fun (a, b, c) -> norm3 (fst locals.(a), fst locals.(b), fst locals.(c)))
      (Delaunay.Triangulation.triangles_of_vertex dt 0)

let local_delaunay_triangles g points u =
  local_triangles_of_neighborhood ~me:u ~me_pos:points.(u)
    ~nbrs:(List.map (fun v -> (v, points.(v))) (G.neighbors g u))

let triangle_fits points ~radius (a, b, c) =
  P.dist points.(a) points.(b) <= radius
  && P.dist points.(b) points.(c) <= radius
  && P.dist points.(a) points.(c) <= radius

(* [Segment.properly_intersect] on the segments [pq] and [rs], by id.
   Edges that share an endpoint id are rejected before any predicate
   runs: the orientation of the shared point against the other edge
   is exactly [Collinear], so the exact test is false for them too.
   [o3]/[o4] are only evaluated once [o1]/[o2] are strictly
   opposite. *)
let edges_cross points p q r s =
  p <> r && p <> s && q <> r && q <> s
  && Pred.opposite
       (Pred.orient2d points.(p) points.(q) points.(r))
       (Pred.orient2d points.(p) points.(q) points.(s))
  && Pred.opposite
       (Pred.orient2d points.(r) points.(s) points.(p))
       (Pred.orient2d points.(r) points.(s) points.(q))

(* Does an edge of [abc] properly cross an edge of [pqr]? *)
let edges_of_cross points a b c p q r =
  edges_cross points a b p q
  || edges_cross points a b q r
  || edges_cross points a b r p
  || edges_cross points b c p q
  || edges_cross points b c q r
  || edges_cross points b c r p
  || edges_cross points c a p q
  || edges_cross points c a q r
  || edges_cross points c a r p

(* [v] strictly inside the counter-clockwise triangle [abc] *)
let inside_ccw points a b c v =
  let pv = points.(v) in
  Pred.orient2d points.(a) points.(b) pv = Pred.Ccw
  && Pred.orient2d points.(b) points.(c) pv = Pred.Ccw
  && Pred.orient2d points.(c) points.(a) pv = Pred.Ccw

let not_corner a b c v = v <> a && v <> b && v <> c

(* [v] strictly inside [abc] (of orientation [o]) unless [v] is one of
   its corners *)
let corner_inside points o a b c v =
  not_corner a b c v
  &&
  match o with
  | Pred.Ccw -> inside_ccw points a b c v
  | Pred.Cw -> inside_ccw points a c b v
  | Pred.Collinear -> false

(* Does a corner of [pqr] that is not a corner of [abc] lie strictly
   inside [abc]?  The orientation of [abc] is only computed when such a
   corner exists. *)
let corners_inside points a b c p q r =
  (not_corner a b c p || not_corner a b c q || not_corner a b c r)
  &&
  let o = Pred.orient2d points.(a) points.(b) points.(c) in
  corner_inside points o a b c p
  || corner_inside points o a b c q
  || corner_inside points o a b c r

let triangles_intersect points (a1, b1, c1) (a2, b2, c2) =
  edges_of_cross points a1 b1 c1 a2 b2 c2
  || corners_inside points a1 b1 c1 a2 b2 c2
  || corners_inside points a2 b2 c2 a1 b1 c1

let circumcircle_contains points (a, b, c) v =
  not_corner a b c v
  && Pred.incircle points.(a) points.(b) points.(c) points.(v)

(* Algorithm 3's removal condition for [t] against an intersecting
   [other]: a corner of [other] lies in [t]'s circumcircle. *)
let circumcircle_contains_corner points t (a, b, c) =
  circumcircle_contains points t a
  || circumcircle_contains points t b
  || circumcircle_contains points t c

(* The exact prefilter both planarizations apply before
   [triangles_intersect]: a proper crossing or a strictly inside corner
   lies in both triangles' bounding boxes, so disjoint boxes decide the
   pair without a predicate. *)
let triangle_bbox points (a, b, c) =
  Geometry.Bbox.of_points [ points.(a); points.(b); points.(c) ]

let graph_of n gabriel triangles =
  G.of_edges n
    (gabriel
    @ List.concat_map (fun (a, b, c) -> [ (a, b); (b, c); (a, c) ]) triangles)

type csr_parts = {
  p_gabriel : (int * int) list;
  p_triangles : (int * int * int) list;
  p_kept : (int * int * int) list;
}

let of_parts n { p_gabriel; p_triangles; p_kept } =
  {
    ldel1 = graph_of n p_gabriel p_triangles;
    planar = graph_of n p_gabriel p_kept;
    gabriel_edges = p_gabriel;
    triangles = p_triangles;
    kept_triangles = p_kept;
  }

(* Algorithm 3: for every pair of intersecting accepted triangles,
   remove any whose circumcircle contains a corner of the other.  A
   pair can only be compared by nodes that hear about both — a node
   gathers the triangles of its 1-hop neighbors — so the pair needs
   mutually visible corners, exactly what the distributed protocol can
   decide.  Pairs are found by a bucket grid instead of an O(T^2)
   scan.  Every accepted triangle has all links within [radius], so
   its bbox is at most [radius] wide and tall; two overlapping bboxes
   therefore have min-corners within [radius] of each other, i.e. in
   the same or an adjacent grid cell of side >= [radius] — scanning the
   3x3 block around each triangle's min-corner cell visits every
   overlapping pair.  Pair decisions are pure predicates of the
   snapshot (they never read the removal flags), so processing pair
   (i, j) from i's worker and letting [removed] writes race on the
   identical value [true] loses nothing: the flags after the join
   are the same for any job count. *)
let planarize_csr ?pool csr points ~radius tris_list =
  let module C = Netgraph.Csr in
  let tris = Array.of_list tris_list in
  let m = Array.length tris in
  if m = 0 then []
  else begin
    let boxes = Array.map (triangle_bbox points) tris in
    let sees x a b c =
      x = a || x = b || x = c || C.mem_edge csr x a || C.mem_edge csr x b
      || C.mem_edge csr x c
    in
    let mutually_visible_csr (a1, b1, c1) (a2, b2, c2) =
      sees a1 a2 b2 c2 || sees b1 a2 b2 c2 || sees c1 a2 b2 c2
    in
    (* bucket triangle indices by their bbox min-corner; the grid
       caps itself at O(m) cells by widening the side, which stays at
       least [radius] *)
    let grid =
      Wireless.Cellgrid.create ~max_cells:((4 * m) + 64) ~cell_size:radius
        (Array.map
           (fun (b : Geometry.Bbox.t) -> { Geometry.Point.x = b.xmin; y = b.ymin })
           boxes)
    in
    let nx = grid.Wireless.Cellgrid.nx and ny = grid.Wireless.Cellgrid.ny in
    let start = grid.Wireless.Cellgrid.start in
    let order = grid.Wireless.Cellgrid.order in
    let removed = Array.make m false in
    let process i =
      let bi = boxes.(i) in
      let k = grid.Wireless.Cellgrid.cell_ix.(i) in
      let cx = k mod nx and cy = k / nx in
      let x_lo = if cx > 0 then cx - 1 else 0 in
      let x_hi = if cx < nx - 1 then cx + 1 else cx in
      for y = (if cy > 0 then cy - 1 else 0) to
              if cy < ny - 1 then cy + 1 else cy do
        (* a grid row of the 3x3 block is one run of [order] *)
        let r = y * nx in
        for idx = start.(r + x_lo) to start.(r + x_hi + 1) - 1 do
          let j = order.(idx) in
          if
            j > i
            && Geometry.Bbox.overlaps bi boxes.(j)
            && mutually_visible_csr tris.(i) tris.(j)
            && triangles_intersect points tris.(i) tris.(j)
          then begin
            if circumcircle_contains_corner points tris.(i) tris.(j) then
              removed.(i) <- true;
            if circumcircle_contains_corner points tris.(j) tris.(i) then
              removed.(j) <- true
          end
        done
      done
    in
    (match pool with
    | Some p ->
      Obs.quiesced (fun () ->
          Netgraph.Pool.parallel_for p ~n:m (fun () -> process))
    | None ->
      for i = 0 to m - 1 do
        process i
      done);
    let kept = ref [] in
    for i = m - 1 downto 0 do
      if not removed.(i) then kept := tris.(i) :: !kept
    done;
    !kept
  end

(* [compare] on int triples, without the polymorphic call *)
let cmp_tri ((a1 : int), (b1 : int), (c1 : int)) (a2, b2, c2) =
  if a1 <> a2 then Int.compare a1 a2
  else if b1 <> b2 then Int.compare b1 b2
  else Int.compare c1 c2

(* Binary search in a sorted array of normalized triples. *)
let mem_tri (arr : (int * int * int) array) t =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if cmp_tri arr.(mid) t < 0 then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length arr && cmp_tri arr.(!lo) t = 0

(* Algorithms 2 and 3 on a CSR snapshot.  Stage L1 computes every
   node's local Delaunay triangles over its [hops]-hop neighborhood
   (a full BFS per node beyond one hop — [build_k] is for small
   instances),
   fed in ascending id order so degenerate tie-breaks inside the
   triangulation are the same whatever the tiling.  Stage L2 accepts a
   triangle from its min-corner's tile exactly when the other two
   corners also found it and the links fit, so each triangle is
   decided exactly once; Gabriel edges are filtered from the owner
   side of each 1-hop row.  Per-tile lists merge by sorting, so the
   outputs are the same for any tiling and job count. *)
let build_parts ?pool ?owners ~hops csr points ~radius =
  let module C = Netgraph.Csr in
  let n = C.node_count csr in
  let owners =
    match owners with
    | Some o -> o
    | None -> [| Array.init n (fun u -> u) |]
  in
  let ntiles = Array.length owners in
  (* L1: per-node local triangles, sorted for binary search *)
  let locals = Array.make n [||] in
  let local_nodes u =
    if hops = 1 then C.neighbors csr u
    else begin
      (* N_k(u) \ {u}, ascending *)
      let dist = C.bfs csr u in
      List.filter (fun v -> v <> u && dist.(v) <= hops) (List.init n Fun.id)
    end
  in
  let l1 u =
    let nbrs = List.map (fun v -> (v, points.(v))) (local_nodes u) in
    locals.(u) <-
      Array.of_list
        (List.sort_uniq cmp_tri
           (local_triangles_of_neighborhood ~me:u ~me_pos:points.(u) ~nbrs))
  in
  Obs.span "ldel.l1" (fun () ->
      match pool with
      | Some p ->
        Obs.quiesced (fun () -> Netgraph.Pool.parallel_for p ~n (fun () -> l1))
      | None ->
        for u = 0 to n - 1 do
          l1 u
        done);
  (* L2 + Gabriel: per-tile over owned nodes *)
  let gab_by_tile = Array.make ntiles [] in
  let acc_by_tile = Array.make ntiles [] in
  let mk_body () =
    let gab = ref [] and acc = ref [] in
    let at u =
      C.iter_neighbors csr u (fun v ->
          if v > u then begin
            (* [Proximity.is_gabriel_edge] off u's CSR row *)
            let blocked = ref false in
            C.iter_neighbors csr u (fun w ->
                if
                  (not !blocked) && w <> v
                  && Geometry.Circle.in_diametral points.(u) points.(v)
                       points.(w)
                then blocked := true);
            if not !blocked then gab := (u, v) :: !gab
          end);
      Array.iter
        (fun ((a, b, c) as t) ->
          if
            a = u
            && triangle_fits points ~radius t
            && mem_tri locals.(b) t
            && mem_tri locals.(c) t
          then acc := t :: !acc)
        locals.(u)
    in
    fun t ->
      gab := [];
      acc := [];
      Array.iter at owners.(t);
      gab_by_tile.(t) <- !gab;
      acc_by_tile.(t) <- !acc
  in
  let p_gabriel, p_triangles =
    Obs.span "ldel.l2" (fun () ->
        (match pool with
        | Some p ->
          Obs.quiesced (fun () ->
              Netgraph.Pool.parallel_for p ~n:ntiles mk_body)
        | None ->
          let body = mk_body () in
          for t = 0 to ntiles - 1 do
            body t
          done);
        let concat_of by_tile = List.concat (Array.to_list by_tile) in
        ( List.sort G.compare_edge (concat_of gab_by_tile),
          List.sort cmp_tri (concat_of acc_by_tile) ))
  in
  let p_kept =
    Obs.span "ldel.planarize" (fun () ->
        planarize_csr ?pool csr points ~radius p_triangles)
  in
  { p_gabriel; p_triangles; p_kept }

let build_csr ?pool ?owners csr points ~radius =
  build_parts ?pool ?owners ~hops:1 csr points ~radius

let build g points ~radius =
  of_parts (G.node_count g)
    (build_csr (Netgraph.Csr.of_graph g) points ~radius)

let build_k g points ~radius ~k =
  if k < 1 then invalid_arg "Ldel.build_k: k < 1";
  of_parts (G.node_count g)
    (build_parts ~hops:k (Netgraph.Csr.of_graph g) points ~radius)

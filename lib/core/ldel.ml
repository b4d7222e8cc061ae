module C = Netgraph.Csr
module P = Geometry.Point
module Pred = Geometry.Predicates

type t = { gabriel : Bytes.t; tri : int array; kept : Bytes.t }

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
    ~nbrs:(List.map (fun v -> (v, points.(v))) (C.neighbors g u))

let fits points ~radius a b c =
  P.dist points.(a) points.(b) <= radius
  && P.dist points.(b) points.(c) <= radius
  && P.dist points.(a) points.(c) <= radius

let triangle_fits points ~radius (a, b, c) = fits points ~radius a b c

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

let not_corner (a : int) b c v = v <> a && v <> b && v <> c

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

(* [triangles_intersect] on corner ids *)
let tri_ids_intersect points a1 b1 c1 a2 b2 c2 =
  edges_of_cross points a1 b1 c1 a2 b2 c2
  || corners_inside points a1 b1 c1 a2 b2 c2
  || corners_inside points a2 b2 c2 a1 b1 c1

let triangles_intersect points (a1, b1, c1) (a2, b2, c2) =
  tri_ids_intersect points a1 b1 c1 a2 b2 c2

let in_circumcircle points a b c v =
  not_corner a b c v
  && Pred.incircle points.(a) points.(b) points.(c) points.(v)

let circumcircle_contains points (a, b, c) v = in_circumcircle points a b c v

(* Algorithm 3's removal condition for [abc] against an intersecting
   [pqr]: a corner of [pqr] lies in [abc]'s circumcircle. *)
let circumcircle_holds_corner points a b c p q r =
  in_circumcircle points a b c p
  || in_circumcircle points a b c q
  || in_circumcircle points a b c r

let circumcircle_contains_corner points (a, b, c) (p, q, r) =
  circumcircle_holds_corner points a b c p q r

(* The exact prefilter both planarizations apply before
   [triangles_intersect]: a proper crossing or a strictly inside corner
   lies in both triangles' bounding boxes, so disjoint boxes decide the
   pair without a predicate. *)
let triangle_bbox points (a, b, c) =
  Geometry.Bbox.of_points [ points.(a); points.(b); points.(c) ]

let shares_corner (a1 : int) b1 c1 a2 b2 c2 =
  a1 = a2 || a1 = b2 || a1 = c2 || b1 = a2 || b1 = b2 || b1 = c2 || c1 = a2
  || c1 = b2 || c1 = c2

(* Algorithm 3 over the accepted triangles in [tri], three corner ids
   each: for every pair of intersecting triangles, flag any whose
   circumcircle contains a corner of the other.  A pair can only be
   compared by nodes that hear about both — a node gathers the
   triangles of its 1-hop neighbors — so the pair needs mutually
   visible corners, exactly what the distributed protocol can decide.

   Pairs that share a corner [v] are skipped before any predicate: an
   accepted triangle is in the star of each of its corners, so both
   are triangles of the one exact triangulation [Del(N[v])] (the star
   kernel's or its Bowyer–Watson fallback's, [N_k] for [build_k]) and
   cannot intersect.  That is 95% of the box-overlapping pairs on
   uniform deployments.

   The rest are found by a bucket grid instead of an O(T^2) scan.
   Every accepted triangle has all links within [radius], so its bbox
   is at most [radius] wide and tall; two overlapping bboxes therefore
   have min-corners within [radius] of each other, i.e. in the same or
   an adjacent grid cell of side >= [radius] — the 3x3 block around
   each triangle's min-corner cell holds every triangle it overlaps.
   Pair decisions are pure, symmetric predicates of the snapshot (they
   never read the removal flags), so processing pair (s, t) from s's
   worker and letting [flag] writes race on the identical value [true]
   loses nothing: the flags after the join are the same for any job
   count. *)
let planarize ?pool csr points ~radius tri =
  let module G = Wireless.Cellgrid in
  let m = Array.length tri / 3 in
  let kept = Bytes.make m '\001' in
  if m > 0 then begin
    (* bucket triangles by their bbox min-corner; the grid caps itself
       at O(m) cells by widening the side, which stays at least
       [radius] *)
    let grid =
      G.create ~cell_size:radius
        (Array.init m (fun i ->
             let pa = points.(tri.(3 * i))
             and pb = points.(tri.((3 * i) + 1))
             and pc = points.(tri.((3 * i) + 2)) in
             {
               P.x = Float.min (Float.min pa.P.x pb.P.x) pc.P.x;
               y = Float.min (Float.min pa.P.y pb.P.y) pc.P.y;
             }))
    in
    let nx = grid.G.nx in
    let start = grid.G.start and order = grid.G.order in
    (* corners and [triangle_bbox] (xmin ymin xmax ymax) in bucket
       order, so a cell run of candidates is contiguous in memory;
       [kept] is mapped back through [order] at the end *)
    let tv = Array.make (3 * m) 0 and box = Array.make (4 * m) 0. in
    for s = 0 to m - 1 do
      let i = order.(s) in
      let a = tri.(3 * i) and b = tri.((3 * i) + 1) and c = tri.((3 * i) + 2) in
      tv.(3 * s) <- a;
      tv.((3 * s) + 1) <- b;
      tv.((3 * s) + 2) <- c;
      let pa = points.(a) and pb = points.(b) and pc = points.(c) in
      box.(4 * s) <- Float.min (Float.min pa.P.x pb.P.x) pc.P.x;
      box.((4 * s) + 1) <- Float.min (Float.min pa.P.y pb.P.y) pc.P.y;
      box.((4 * s) + 2) <- Float.max (Float.max pa.P.x pb.P.x) pc.P.x;
      box.((4 * s) + 3) <- Float.max (Float.max pa.P.y pb.P.y) pc.P.y
    done;
    let flag = Array.make m false in
    (* with no shared corner, [x] sees a triangle through an edge *)
    let sees x a b c = C.mem_edge csr x a || C.mem_edge csr x b || C.mem_edge csr x c in
    let pair s t =
      let a1 = tv.(3 * s) and b1 = tv.((3 * s) + 1) and c1 = tv.((3 * s) + 2) in
      let a2 = tv.(3 * t) and b2 = tv.((3 * t) + 1) and c2 = tv.((3 * t) + 2) in
      if
        (not (shares_corner a1 b1 c1 a2 b2 c2))
        && box.(4 * t) <= box.((4 * s) + 2)
        && box.(4 * s) <= box.((4 * t) + 2)
        && box.((4 * t) + 1) <= box.((4 * s) + 3)
        && box.((4 * s) + 1) <= box.((4 * t) + 3)
        && (sees a1 a2 b2 c2 || sees b1 a2 b2 c2 || sees c1 a2 b2 c2)
        && tri_ids_intersect points a1 b1 c1 a2 b2 c2
      then begin
        if circumcircle_holds_corner points a1 b1 c1 a2 b2 c2 then
          flag.(s) <- true;
        if circumcircle_holds_corner points a2 b2 c2 a1 b1 c1 then
          flag.(t) <- true
      end
    in
    (* each unordered pair once: the later candidates of the 3x3 block
       are the rest of this row's run, from [s + 1], and the next
       row's run; the previous row's run lies wholly before [s].  A
       candidate in the next column (row) has its min corner there, so
       it can only overlap when this box's max corner reaches that
       column (row) too — the grid's own monotone cell rounding
       decides, so no overlapping pair is skipped *)
    let process s =
      let k = grid.G.cell_ix.(order.(s)) in
      let cx = k mod nx and cy = k / nx in
      let k' = G.cell_at grid { P.x = box.((4 * s) + 2); y = box.((4 * s) + 3) } in
      let x_lo = if cx > 0 then cx - 1 else 0 in
      let x_hi = if k' mod nx > cx then cx + 1 else cx in
      for t = s + 1 to start.((cy * nx) + x_hi + 1) - 1 do
        pair s t
      done;
      if k' / nx > cy then begin
        let r = (cy + 1) * nx in
        for t = start.(r + x_lo) to start.(r + x_hi + 1) - 1 do
          pair s t
        done
      end
    in
    (match pool with
    | Some p ->
      Obs.quiesced (fun () ->
          Netgraph.Pool.parallel_for p ~n:m (fun () -> process))
    | None ->
      for s = 0 to m - 1 do
        process s
      done);
    for s = 0 to m - 1 do
      if flag.(s) then Bytes.set kept order.(s) '\000'
    done
  end;
  kept

(* [N_k(u) \ {u}] of every node, ascending, as rows on offsets (a
   full BFS per node: [build_k] is for small instances). *)
let k_hop_rows csr hops =
  let n = C.node_count csr in
  let rows =
    Array.init n (fun u ->
        let dist = C.bfs csr u in
        let acc = ref [] in
        for v = n - 1 downto 0 do
          if v <> u && dist.(v) <= hops then acc := v :: !acc
        done;
        Array.of_list !acc)
  in
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + Array.length rows.(u)
  done;
  (off, Array.concat (Array.to_list rows))

(* Algorithms 2 and 3 on a CSR snapshot.  Stage L1 computes every
   node's star in the Delaunay triangulation of its [hops]-hop
   neighborhood with {!Delaunay.Star}: the ordered link, flat on the
   rows' offsets (a link is no longer than its row), plus a closed
   flag.  Stage L2 accepts triangle [(u, a, b)] from its min corner
   [u] exactly when [a, b] are consecutive in [u]'s link, [b, u] in
   [a]'s and [u, a] in [b]'s — all three corners found it — and the
   links fit, so each triangle is decided exactly once; Gabriel edges
   are flagged on the owner-side arc of each 1-hop row.  Each node's
   output lands in its own slots, sorted there, and the triangles are
   laid out flat in node order; Algorithm 3 flags the survivors.  So
   the outputs are the same for any tiling and job count, and no list
   is built. *)
let build_parts ?pool ?owners ~hops csr points ~radius =
  let n = C.node_count csr in
  let owners =
    match owners with
    | Some o -> o
    | None -> [| Array.init n (fun u -> u) |]
  in
  let ntiles = Array.length owners in
  let coff = C.offsets csr and ctargets = C.targets csr in
  let off, nbrs = if hops = 1 then (coff, ctargets) else k_hop_rows csr hops in
  (* L1: per-node links; a row in ascending id order keeps the
     fallback's degenerate tie-breaks the same whatever the tiling *)
  let link = Array.make off.(n) 0 in
  let len = Array.make n 0 and closed = Array.make n false in
  let l1 () =
    let sc = Delaunay.Star.scratch () in
    fun u ->
      len.(u) <-
        Delaunay.Star.link_into sc points ~center:u ~nbrs ~lo:off.(u)
          ~hi:off.(u + 1) ~link ~closed
  in
  Obs.span "ldel.l1" (fun () ->
      match pool with
      | Some p ->
        Obs.quiesced (fun () -> Netgraph.Pool.parallel_for p ~n l1)
      | None ->
        let l1 = l1 () in
        for u = 0 to n - 1 do
          l1 u
        done);
  (* [y]'s successor in [x]'s link, or -1 *)
  let succ x y =
    let lo = off.(x) and m = len.(x) in
    let i = ref 0 in
    while !i < m && link.(lo + !i) <> y do
      incr i
    done;
    if !i + 1 < m then link.(lo + !i + 1)
    else if !i + 1 = m && closed.(x) then link.(lo)
    else -1
  in
  (* L2 + Gabriel, per owned node: Gabriel flags per arc, accepted
     triangles [(u, tb, tc)] sorted in [u]'s slots *)
  let gabriel = Bytes.make (Array.length ctargets) '\000' in
  let tb = Array.make off.(n) 0 and tc = Array.make off.(n) 0 in
  let nacc = Array.make n 0 in
  let at u =
    for k = coff.(u) to coff.(u + 1) - 1 do
      let v = ctargets.(k) in
      if v > u then begin
        (* [Proximity.is_gabriel_edge] off u's CSR row *)
        let blocked = ref false in
        C.iter_neighbors csr u (fun w ->
            if
              (not !blocked) && w <> v
              && Geometry.Circle.in_diametral points.(u) points.(v) points.(w)
            then blocked := true);
        if not !blocked then Bytes.set gabriel k '\001'
      end
    done;
    let lo = off.(u) and m = len.(u) in
    let cnt = ref 0 in
    for i = 0 to (if closed.(u) then m - 1 else m - 2) do
      let a = link.(lo + i) and b = link.(lo + ((i + 1) mod m)) in
      if
        a > u && b > u
        && fits points ~radius u a b
        && succ a b = u
        && succ b u = a
      then begin
        let p = Int.min a b and q = Int.max a b in
        let j = ref (lo + !cnt) in
        while !j > lo && (tb.(!j - 1) > p || (tb.(!j - 1) = p && tc.(!j - 1) > q)) do
          tb.(!j) <- tb.(!j - 1);
          tc.(!j) <- tc.(!j - 1);
          decr j
        done;
        tb.(!j) <- p;
        tc.(!j) <- q;
        incr cnt
      end
    done;
    nacc.(u) <- !cnt
  in
  let tri =
    Obs.span "ldel.l2" (fun () ->
        (match pool with
        | Some p ->
          Obs.quiesced (fun () ->
              Netgraph.Pool.parallel_for p ~n:ntiles (fun () t ->
                  Array.iter at owners.(t)))
        | None -> Array.iter (fun o -> Array.iter at o) owners);
        let tri = Array.make (3 * Array.fold_left ( + ) 0 nacc) 0 in
        let t = ref 0 in
        for u = 0 to n - 1 do
          for k = off.(u) to off.(u) + nacc.(u) - 1 do
            tri.(3 * !t) <- u;
            tri.((3 * !t) + 1) <- tb.(k);
            tri.((3 * !t) + 2) <- tc.(k);
            incr t
          done
        done;
        tri)
  in
  let kept =
    Obs.span "ldel.planarize" (fun () -> planarize ?pool csr points ~radius tri)
  in
  { gabriel; tri; kept }

let build ?pool ?owners csr points ~radius =
  build_parts ?pool ?owners ~hops:1 csr points ~radius

let build_k csr points ~radius ~k =
  if k < 1 then invalid_arg "Ldel.build_k: k < 1";
  build_parts ~hops:k csr points ~radius

(* A row filter of [csr]: one byte per arc, set on both arcs of each
   Gabriel edge and of each edge of a kept triangle.  Gabriel edges
   are marked from their owner arc's row and triangles from their
   place in [tri] (min corner first), on the pool; two workers may set
   one byte, but only ever to the same value, so the marks after the
   join are the same for any job count. *)
let planar ?pool ?points csr { gabriel; tri; kept } =
  let off = C.offsets csr and adj = C.targets csr in
  let mark = Bytes.make (Array.length adj) '\000' in
  let link a b =
    Bytes.set mark (C.arc csr a b) '\001';
    Bytes.set mark (C.arc csr b a) '\001'
  in
  let each n body =
    match pool with
    | Some p when n > 0 ->
      Obs.quiesced (fun () -> Netgraph.Pool.parallel_for p ~n (fun () -> body))
    | _ ->
      for i = 0 to n - 1 do
        body i
      done
  in
  each (C.node_count csr) (fun u ->
      for k = off.(u) to off.(u + 1) - 1 do
        if Bytes.get gabriel k <> '\000' then begin
          Bytes.set mark k '\001';
          Bytes.set mark (C.arc csr adj.(k) u) '\001'
        end
      done);
  each (Bytes.length kept) (fun t ->
      if Bytes.get kept t <> '\000' then begin
        let a = tri.(3 * t) and b = tri.((3 * t) + 1) and c = tri.((3 * t) + 2) in
        link a b;
        link b c;
        link a c
      end);
  C.filter_arcs ?pool ?points csr (fun k -> Bytes.get mark k <> '\000')

module P = Geometry.Point
module C = Netgraph.Csr

(* Any blocker of an RNG lune or Gabriel disk of edge (u, v) lies
   within |uv| <= radius of u, so scanning u's UDG neighbors sees
   every candidate. *)
let no_blocker udg points u v inside =
  let off = C.offsets udg and adj = C.targets udg in
  let k = ref off.(u) and hi = off.(u + 1) in
  while
    !k < hi
    &&
    let w = adj.(!k) in
    w = v || not (inside points.(u) points.(v) points.(w))
  do
    incr k
  done;
  !k = hi

let is_rng_edge points udg u v =
  C.mem_edge udg u v && no_blocker udg points u v Geometry.Circle.in_lune

let is_gabriel_edge points udg u v =
  C.mem_edge udg u v && no_blocker udg points u v Geometry.Circle.in_diametral

(* The UDG's edges that pass [keep], decided once per edge from its
   smaller end (as the predicates are stated) and marked on both arcs,
   so the row filter is symmetric even where [keep u v] and
   [keep v u] could round apart. *)
let filter_edges udg keep =
  let off = C.offsets udg and adj = C.targets udg in
  let mark = Bytes.make (Array.length adj) '\000' in
  for u = 0 to C.node_count udg - 1 do
    for k = off.(u) to off.(u + 1) - 1 do
      let v = adj.(k) in
      if u < v && keep u v then begin
        Bytes.set mark k '\001';
        Bytes.set mark (C.arc udg v u) '\001'
      end
    done
  done;
  C.filter_arcs udg (fun k -> Bytes.get mark k <> '\000')

let rng_graph udg points = filter_edges udg (is_rng_edge points udg)
let gabriel_graph udg points = filter_edges udg (is_gabriel_edge points udg)

let yao_graph udg points ~cones =
  if cones < 1 then invalid_arg "Proximity.yao_graph: cones < 1";
  let n = C.node_count udg in
  let edges = ref [] in
  let sector u v =
    let theta = P.angle_of (P.sub points.(v) points.(u)) in
    let theta = if theta < 0. then theta +. (2. *. Float.pi) else theta in
    let s = int_of_float (theta /. (2. *. Float.pi) *. float_of_int cones) in
    min s (cones - 1)
  in
  for u = 0 to n - 1 do
    let best = Array.make cones (-1) in
    C.iter_neighbors udg u (fun v ->
        let s = sector u v in
        let better =
          best.(s) = -1
          ||
          let db = P.dist2 points.(u) points.(best.(s)) in
          let dv = P.dist2 points.(u) points.(v) in
          dv < db || (dv = db && v < best.(s))
        in
        if better then best.(s) <- v);
    Array.iter (fun v -> if v >= 0 then edges := (u, v) :: !edges) best
  done;
  C.of_edges n !edges

let udel points ~radius =
  C.of_edges (Array.length points)
    (List.filter
       (fun (u, v) -> P.dist points.(u) points.(v) <= radius)
       (Delaunay.Triangulation.edges (Delaunay.Triangulation.triangulate points)))

module P = Geometry.Point
module Pred = Geometry.Predicates

(* Triangles are ordered triples (i, j, k), counterclockwise.  The
   ghost vertex is [ghost = -1] and is kept in the last slot, so a
   ghost triangle (a, b, ghost) records the directed hull edge a -> b
   with the mesh exterior to its left. *)
let ghost = -1

(* Bowyer–Watson work counters: one insertion per point after the
   seed; the cavity size (bad triangles excavated per insertion) is
   this kernel's analogue of edge flips. *)
let c_triangulations = Obs.counter "delaunay.triangulations"
let c_insertions = Obs.counter "delaunay.insertions"
let c_cavity = Obs.counter "delaunay.cavity_triangles"
let d_cavity = Obs.dist "delaunay.cavity_size"

(* explicit int comparators: triangle ids never go through polymorphic
   compare, so the hot set operations stay monomorphic *)
let cmp_int_pair (a1, b1) (a2, b2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c else Int.compare b1 b2

let cmp_tri (a1, b1, c1) (a2, b2, c2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c
  else
    let c = Int.compare b1 b2 in
    if c <> 0 then c else Int.compare c1 c2

(* The live triangles, ghosts included, packed three ints per slot in
   [tri.(0 .. 3 * ntri - 1)], each normalized.  Slot order carries no
   meaning — every query below either tests membership or sorts — so
   the mesh behaves exactly as a set of triangles. *)
type t = {
  pts : P.t array;
  mutable tri : int array;
  mutable ntri : int;
  collinear_path : (int * int) list option;
      (* Delaunay graph of degenerate (collinear / tiny) inputs *)
}

let point_count t = Array.length t.pts
let points t = t.pts

(* Rotate a ccw triple so the smallest vertex comes first; cyclic
   order — hence orientation — is preserved.  Ghosts are kept LAST
   instead, as (a, b, ghost) with a < b not required (the directed
   edge a -> b is meaningful). *)
let normalize (a, b, c) =
  if c = ghost then (a, b, c)
  else if a = ghost then (b, c, a)
  else if b = ghost then (c, a, b)
  else if a <= b && a <= c then (a, b, c)
  else if b <= a && b <= c then (b, c, a)
  else (c, a, b)

(* a copy of [arr] with room for twice [need] slots *)
let grow arr need =
  let bigger = Array.make (2 * need) 0 in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let push t a b c =
  let k = 3 * t.ntri in
  if k + 3 > Array.length t.tri then t.tri <- grow t.tri (k + 3);
  t.tri.(k) <- a;
  t.tri.(k + 1) <- b;
  t.tri.(k + 2) <- c;
  t.ntri <- t.ntri + 1

(* [push t (normalize (a, b, c))] without the tuples *)
let push_normalized t a b c =
  if c = ghost then push t a b c
  else if a = ghost then push t b c a
  else if b = ghost then push t c a b
  else if a <= b && a <= c then push t a b c
  else if b <= a && b <= c then push t b c a
  else push t c a b

let in_circumdisk pts a b c p =
  if c = ghost then
    (* Ghost triangle over directed hull edge a -> b (exterior left):
       the limiting circumdisk is the open exterior half-plane plus
       the open segment a b. *)
    match Pred.orient2d pts.(a) pts.(b) p with
    | Pred.Ccw -> true
    | Pred.Cw -> false
    | Pred.Collinear ->
      (* strictly between a and b on the line *)
      P.dot (P.sub pts.(a) p) (P.sub pts.(b) p) < 0.
  else Pred.incircle pts.(a) pts.(b) pts.(c) p

(* Directed edges of the cavity, two ints per edge. *)
type edge_buf = { mutable e : int array; mutable len : int }

let push_edge eb u v =
  if (2 * eb.len) + 2 > Array.length eb.e then
    eb.e <- grow eb.e ((2 * eb.len) + 2);
  eb.e.(2 * eb.len) <- u;
  eb.e.((2 * eb.len) + 1) <- v;
  eb.len <- eb.len + 1

(* One Bowyer–Watson step.  Every live triangle is tested, so the
   predicate calls are one per live triangle whatever the slot order;
   the bad ones leave their directed edges in [eb] and the survivors
   are compacted to the front.  A cavity edge is on the boundary when
   its reverse is not a cavity edge (the first copy of a repeated edge
   stands for all), and each boundary edge is fanned to the new
   point. *)
let insert t eb pi =
  Obs.incr c_insertions;
  let pts = t.pts and tri = t.tri in
  let p = pts.(pi) in
  let live = ref 0 in
  eb.len <- 0;
  for i = 0 to t.ntri - 1 do
    let a = tri.(3 * i) and b = tri.((3 * i) + 1) and c = tri.((3 * i) + 2) in
    if in_circumdisk pts a b c p then begin
      push_edge eb a b;
      push_edge eb b c;
      push_edge eb c a
    end
    else begin
      let k = 3 * !live in
      tri.(k) <- a;
      tri.(k + 1) <- b;
      tri.(k + 2) <- c;
      incr live
    end
  done;
  let cavity = t.ntri - !live in
  if !Obs.on then begin
    Obs.add c_cavity cavity;
    Obs.observe d_cavity (float_of_int cavity)
  end;
  if cavity = 0 then
    (* Every point is covered by a real or ghost triangle; an empty
       cavity means a duplicate point sat exactly on a vertex. *)
    invalid_arg "Triangulation: duplicate point";
  t.ntri <- !live;
  let e = eb.e in
  for i = 0 to eb.len - 1 do
    let u = e.(2 * i) and v = e.((2 * i) + 1) in
    let interior = ref false and j = ref 0 in
    while (not !interior) && !j < eb.len do
      let x = e.(2 * !j) and y = e.((2 * !j) + 1) in
      if (x = v && y = u) || (!j < i && x = u && y = v) then interior := true;
      incr j
    done;
    if not !interior then push_normalized t u v pi
  done

let find_seed pts =
  let n = Array.length pts in
  (* first pair of distinct points, then first point non-collinear
     with them *)
  let rec third i j k =
    if k >= n then None
    else if
      k <> i && k <> j && Pred.orient2d pts.(i) pts.(j) pts.(k) <> Pred.Collinear
    then Some (i, j, k)
    else third i j (k + 1)
  in
  if n < 2 then None else third 0 1 0

(* Two points coincide when [Point.compare] ties them: the same
   equality ([-0.] = [0.], nan = nan) as structural hashing of the
   coordinate pair. *)
let check_distinct pts =
  let order = Array.init (Array.length pts) Fun.id in
  Array.sort (fun i j -> P.compare pts.(i) pts.(j)) order;
  for k = 1 to Array.length order - 1 do
    if P.compare pts.(order.(k - 1)) pts.(order.(k)) = 0 then
      invalid_arg "Triangulation: duplicate point"
  done

let collinear_fallback pts =
  (* All points on one line (or fewer than 3 points): the Delaunay
     graph is the path along the line in sorted order. *)
  let idx = Array.init (Array.length pts) (fun i -> i) in
  let order = Array.copy idx in
  Array.sort (fun i j -> P.compare pts.(i) pts.(j)) order;
  let rec path i acc =
    if i + 1 >= Array.length order then List.rev acc
    else
      let u = order.(i) and v = order.(i + 1) in
      path (i + 1) ((min u v, max u v) :: acc)
  in
  path 0 []

let triangulate pts =
  Obs.incr c_triangulations;
  check_distinct pts;
  match find_seed pts with
  | None ->
    {
      pts;
      tri = [||];
      ntri = 0;
      collinear_path = Some (collinear_fallback pts);
    }
  | Some (i, j, k) ->
    let i, j, k =
      match Pred.orient2d pts.(i) pts.(j) pts.(k) with
      | Pred.Ccw -> (i, j, k)
      | Pred.Cw -> (i, k, j)
      | Pred.Collinear -> assert false (* find_seed skips collinear triples *)
    in
    (* n points and the ghost close into 2n - 2 triangles *)
    let n = Array.length pts in
    let t =
      { pts; tri = Array.make (6 * n) 0; ntri = 0; collinear_path = None }
    in
    push_normalized t i j k;
    (* ghost triangles on the three hull edges, exterior to the left
       of their directed edge: reverse each ccw edge of the seed *)
    push t j i ghost;
    push t k j ghost;
    push t i k ghost;
    let eb = { e = Array.make 48 0; len = 0 } in
    for p = 0 to n - 1 do
      if p <> i && p <> j && p <> k then insert t eb p
    done;
    t

(* real triangles whose corners satisfy [keep], sorted *)
let triangles_where t keep =
  let acc = ref [] in
  for s = 0 to t.ntri - 1 do
    let a = t.tri.(3 * s) and b = t.tri.((3 * s) + 1) and c = t.tri.((3 * s) + 2) in
    if c <> ghost && keep a b c then acc := (a, b, c) :: !acc
  done;
  List.sort cmp_tri !acc

let triangles t = triangles_where t (fun _ _ _ -> true)

let has_triangle t i j k =
  let mem (a, b, c) =
    let found = ref false in
    for s = 0 to t.ntri - 1 do
      if t.tri.(3 * s) = a && t.tri.((3 * s) + 1) = b && t.tri.((3 * s) + 2) = c
      then found := true
    done;
    !found
  in
  mem (normalize (i, j, k)) || mem (normalize (i, k, j))

let edges t =
  match t.collinear_path with
  | Some path -> path
  | None ->
    List.sort_uniq cmp_int_pair
      (List.concat_map
         (fun (a, b, c) ->
           [ (min a b, max a b); (min b c, max b c); (min a c, max a c) ])
         (triangles t))

let hull t =
  match t.collinear_path with
  | Some path ->
    (* ordered point sequence along the line *)
    (match path with
    | [] -> if Array.length t.pts = 1 then [ 0 ] else []
    | (u, _) :: _ ->
      u :: List.map (fun (_, v) -> v) path)
  | None ->
    (* ghost triangles (a, b, ghost) carry directed hull edges a -> b
       with exterior left, i.e. the hull in clockwise orientation;
       chain them and reverse for ccw. *)
    let next = Array.make (Array.length t.pts) ghost in
    let start = ref max_int in
    for s = 0 to t.ntri - 1 do
      let a = t.tri.(3 * s) in
      if t.tri.((3 * s) + 2) = ghost then begin
        next.(a) <- t.tri.((3 * s) + 1);
        if a < !start then start := a
      end
    done;
    let start = !start in
    if start = max_int then []
    else begin
      let rec chain v acc =
        let w = next.(v) in
        if w = start then List.rev (v :: acc) else chain w (v :: acc)
      in
      List.rev (chain start [])
    end

let triangles_of_vertex t v =
  triangles_where t (fun a b c -> a = v || b = v || c = v)

let is_delaunay pts tris =
  List.for_all
    (fun (a, b, c) ->
      Pred.orient2d pts.(a) pts.(b) pts.(c) <> Pred.Collinear
      && Array.for_all
           (fun p ->
             P.equal p pts.(a) || P.equal p pts.(b) || P.equal p pts.(c)
             || not (Pred.incircle pts.(a) pts.(b) pts.(c) p))
           pts)
    tris

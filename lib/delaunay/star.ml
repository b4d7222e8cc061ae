module P = Geometry.Point
module Pred = Geometry.Predicates

let c_star = Obs.counter "delaunay.star"
let c_fallbacks = Obs.counter "delaunay.star_fallbacks"

(* Per-domain buffers, grown on demand: [ord] is the angular order of
   the neighbours (positions in the caller's row), [key]/[half] their
   float pseudo-angle and exact half-plane, [tmp] the merge buffer. *)
type scratch = {
  mutable ord : int array;
  mutable tmp : int array;
  mutable key : float array;
  mutable half : int array;
}

let scratch () = { ord = [||]; tmp = [||]; key = [||]; half = [||] }

let reserve sc d =
  if Array.length sc.ord < d then begin
    let cap = max d (2 * Array.length sc.ord) in
    sc.ord <- Array.make cap 0;
    sc.tmp <- Array.make cap 0;
    sc.key <- Array.make cap 0.;
    sc.half <- Array.make cap 0
  end

(* Monotone in the angle of (dx, dy) over [0, 4), 0 on the positive x
   axis: a cheap presort key.  Rounding may misorder nearly parallel
   directions; the exact pass below repairs that. *)
let pseudo_angle dx dy =
  if dy >= 0. then
    if dx >= 0. then dy /. (dx +. dy) else 1. -. (dx /. (dy -. dx))
  else if dx < 0. then 2. -. (dy /. (-.dx -. dy))
  else 3. +. (dx /. (dx -. dy))

(* Bottom-up merge sort of [ord.(0 .. d-1)] by [key]. *)
let sort_by_key sc d =
  let key = sc.key in
  let src = ref sc.ord and dst = ref sc.tmp in
  let width = ref 1 in
  while !width < d do
    let s = !src and t = !dst in
    let lo = ref 0 in
    while !lo < d do
      let mid = min d (!lo + !width) and hi = min d (!lo + (2 * !width)) in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || key.(s.(!i)) <= key.(s.(!j))) then begin
          t.(k) <- s.(!i);
          incr i
        end
        else begin
          t.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := t;
    dst := s;
    width := 2 * !width
  done;
  if !src != sc.ord then Array.blit !src 0 sc.ord 0 d

(* Raised inside the kernel on an exact tie; caught by [link_into]. *)
exception Tie

(* The link of [center] from the full Bowyer–Watson kernel over
   [center] followed by the row, in row order — the local array the
   LDel stages always triangulated, so degenerate tie-breaks (and the
   duplicate-point exception) are the kernel's own. *)
let fallback pts ~center ~nbrs ~lo ~hi ~link ~closed =
  Obs.incr c_fallbacks;
  let d = hi - lo in
  let local = Array.make (d + 1) pts.(center) in
  for i = 0 to d - 1 do
    local.(i + 1) <- pts.(nbrs.(lo + i))
  done;
  let tris = Triangulation.triangles_of_vertex (Triangulation.triangulate local) 0 in
  (* each triangle is (0, x, y), counter-clockwise: y follows x *)
  let next = Array.make (d + 1) (-1) and has_pred = Array.make (d + 1) false in
  List.iter
    (fun (_, x, y) ->
      next.(x) <- y;
      has_pred.(y) <- true)
    tris;
  let ntri = List.length tris in
  let start = ref (-1) in
  for x = d downto 1 do
    if next.(x) >= 0 && not has_pred.(x) then start := x
  done;
  let is_closed = !start < 0 in
  if is_closed then
    for x = d downto 1 do
      if next.(x) >= 0 then start := x
    done;
  let m = ref 0 in
  if ntri > 0 then begin
    let x = ref !start in
    let go = ref true in
    while !go do
      link.(lo + !m) <- nbrs.(lo + !x - 1);
      incr m;
      x := next.(!x);
      go := !x >= 0 && !x <> !start
    done
  end;
  (* the triangles around one vertex of a triangulation form one fan *)
  assert (!m = if ntri = 0 then 0 else if is_closed then ntri else ntri + 1);
  closed.(center) <- is_closed && ntri > 0;
  !m

let link_into sc pts ~center ~nbrs ~lo ~hi ~link ~closed =
  Obs.incr c_star;
  let d = hi - lo in
  let u = pts.(center) in
  let star () =
    reserve sc d;
    let ord = sc.ord and key = sc.key and half = sc.half in
    (* directions, presort keys and the nearest neighbour *)
    let best = ref (-1) and best_r = ref infinity and second_r = ref infinity in
    for i = 0 to d - 1 do
      let q = pts.(nbrs.(lo + i)) in
      let dx = q.P.x -. u.P.x and dy = q.P.y -. u.P.y in
      (* a rounded difference keeps its exact sign, so [half] is exact *)
      if
        not
          (Float.is_finite dx && Float.is_finite dy
          && (Float.abs dx > 0. || Float.abs dy > 0.))
      then raise Tie;
      ord.(i) <- i;
      key.(i) <- pseudo_angle dx dy;
      half.(i) <- (if dy > 0. || (dy >= 0. && dx > 0.) then 0 else 1);
      let r = (dx *. dx) +. (dy *. dy) in
      if r < !best_r then begin
        second_r := !best_r;
        best_r := r;
        best := i
      end
      else if r < !second_r then second_r := r
    done;
    sort_by_key sc d;
    (* exact angular order: insertion sort with [orient2d], linear on
       a presorted row; equal directions are a tie *)
    let q i = pts.(nbrs.(lo + i)) in
    let after i j =
      if half.(i) <> half.(j) then half.(i) > half.(j)
      else
        match Pred.orient2d u (q i) (q j) with
        | Pred.Ccw -> false
        | Pred.Cw -> true
        | Pred.Collinear -> raise Tie
    in
    for i = 1 to d - 1 do
      let x = ord.(i) in
      let j = ref i in
      while !j > 0 && after ord.(!j - 1) x do
        ord.(!j) <- ord.(!j - 1);
        decr j
      done;
      ord.(!j) <- x
    done;
    (* an angular gap of more than pi opens the star; exactly pi is a
       tie (u on a segment between two neighbours) *)
    let gap = ref (-1) in
    for i = 0 to d - 1 do
      match Pred.orient2d u (q ord.(i)) (q ord.((i + 1) mod d)) with
      | Pred.Ccw -> ()
      | Pred.Cw -> gap := i
      | Pred.Collinear -> raise Tie
    done;
    let is_closed = !gap < 0 in
    (* a closed scan starts at the nearest neighbour, whose inverse is
       the farthest point and so a hull vertex; the float distances
       must single it out beyond their rounding error *)
    let first =
      if not is_closed then (!gap + 1) mod d
      else if !best_r > 1e-290 && !second_r > !best_r *. (1. +. 1e-12) then begin
        let k = ref 0 in
        while ord.(!k) <> !best do
          incr k
        done;
        !k
      end
      else raise Tie
    in
    (* Graham scan over the neighbours inverted about [u]: the turn
       a' b' c' has the sign of [incircle_det a b c u], so no inverted
       coordinate is formed.  The stack lives in [link]. *)
    let top = ref 0 in
    let push c =
      let pc = pts.(c) in
      let popping = ref (!top >= 2) in
      while !popping do
        let s =
          Pred.incircle_sign pts.(link.(lo + !top - 2)) pts.(link.(lo + !top - 1)) pc u
        in
        if s = 0 then raise Tie
        else if s < 0 then begin
          decr top;
          popping := !top >= 2
        end
        else popping := false
      done
    in
    for k = 0 to d - 1 do
      let c = nbrs.(lo + ord.((first + k) mod d)) in
      push c;
      link.(lo + !top) <- c;
      incr top
    done;
    if is_closed then push link.(lo);
    closed.(center) <- is_closed;
    !top
  in
  if d <= 1 then begin
    (* no triangle, and nothing triangulated: the LDel stages never
       ran the full kernel on fewer than two neighbours either *)
    closed.(center) <- false;
    0
  end
  else try star () with Tie -> fallback pts ~center ~nbrs ~lo ~hi ~link ~closed

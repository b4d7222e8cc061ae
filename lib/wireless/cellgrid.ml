(* Flat counting-sort spatial buckets: the library's one spatial index.

   Three int arrays, built once, immutable afterwards, with no Hashtbl
   and no Obs calls, so reads are safe from any number of pool worker
   domains and cost nothing at 10^6 nodes.  Buckets keep node ids in
   ascending order (the counting sort scans ids in order twice), so
   every iteration order below is deterministic.

   The same structure serves three callers: with [cell_size = radius]
   it drives CSR-native UDG construction and buckets LDel triangles by
   bbox corner for planarization, and with [cell_size = tile side] its
   buckets ARE the tile ownership sets of the sharded pipeline. *)

module P = Geometry.Point

type t = {
  cell : float;
  x0 : float;
  y0 : float;
  nx : int;
  ny : int;
  start : int array;  (* bucket k holds order.(start.(k) .. start.(k+1)-1) *)
  order : int array;  (* node ids grouped by bucket, ascending within *)
  cell_ix : int array;  (* node -> bucket index *)
}

let cell_index t x y =
  let cx = int_of_float ((x -. t.x0) /. t.cell) in
  let cy = int_of_float ((y -. t.y0) /. t.cell) in
  let cx = if cx < 0 then 0 else if cx >= t.nx then t.nx - 1 else cx in
  let cy = if cy < 0 then 0 else if cy >= t.ny then t.ny - 1 else cy in
  (cy * t.nx) + cx

(* Dense deployments (a few points per [cell_size]-wide cell) stay on
   the requested grid; only wide, sparse spans get wider cells. *)
let max_cells n = (4 * n) + 64

let create ~cell_size points =
  if cell_size <= 0. then invalid_arg "Cellgrid.create: cell_size <= 0";
  let n = Array.length points in
  let x0 = ref infinity and y0 = ref infinity in
  let x1 = ref neg_infinity and y1 = ref neg_infinity in
  Array.iter
    (fun (p : P.t) ->
      if p.x < !x0 then x0 := p.x;
      if p.x > !x1 then x1 := p.x;
      if p.y < !y0 then y0 := p.y;
      if p.y > !y1 then y1 := p.y)
    points;
  let x0 = if n = 0 then 0. else !x0 and y0 = if n = 0 then 0. else !y0 in
  let span lo hi = if n = 0 then 0. else hi -. lo in
  let sx = span x0 !x1 and sy = span y0 !y1 in
  (* a wide, sparse bounding box would cost (span / cell)^2 cells;
     doubling the side until the grid fits [max_cells n] keeps it O(n)
     while every cell stays at least [cell_size] wide, so a 3x3 block
     still covers every within-[cell_size] pair.  The test runs in
     floats: the unwidened count can overflow an int. *)
  let cells_at c =
    (1. +. Float.floor (sx /. c)) *. (1. +. Float.floor (sy /. c))
  in
  let cell_size =
    let c = ref cell_size in
    while cells_at !c > Float.of_int (max_cells n) do
      c := 2. *. !c
    done;
    !c
  in
  let dim s = max 1 (1 + int_of_float (s /. cell_size)) in
  let nx = dim sx and ny = dim sy in
  let t =
    {
      cell = cell_size;
      x0;
      y0;
      nx;
      ny;
      start = Array.make ((nx * ny) + 1) 0;
      order = Array.make n 0;
      cell_ix = Array.make n 0;
    }
  in
  for u = 0 to n - 1 do
    let k = cell_index t points.(u).P.x points.(u).P.y in
    t.cell_ix.(u) <- k;
    t.start.(k + 1) <- t.start.(k + 1) + 1
  done;
  for k = 0 to (nx * ny) - 1 do
    t.start.(k + 1) <- t.start.(k) + t.start.(k + 1)
  done;
  let cursor = Array.copy t.start in
  for u = 0 to n - 1 do
    let k = t.cell_ix.(u) in
    t.order.(cursor.(k)) <- u;
    cursor.(k) <- cursor.(k) + 1
  done;
  t

let cells t = t.nx * t.ny
let cell_of t u = t.cell_ix.(u)

let iter_cell t k f =
  for i = t.start.(k) to t.start.(k + 1) - 1 do
    f t.order.(i)
  done

let nodes_of t k =
  Array.sub t.order t.start.(k) (t.start.(k + 1) - t.start.(k))

(* ring of cells at Chebyshev distance exactly [r] around cell [k] *)
let iter_ring_cells t k r f =
  let cx = k mod t.nx and cy = k / t.nx in
  for dy = -r to r do
    let y = cy + dy in
    if y >= 0 && y < t.ny then
      for dx = -r to r do
        if abs dx = r || abs dy = r then begin
          let x = cx + dx in
          if x >= 0 && x < t.nx then f ((y * t.nx) + x)
        end
      done
  done

let cell_at t (p : P.t) = cell_index t p.P.x p.P.y

let bfs_parents g s =
  let n = Csr.node_count g in
  let parent = Array.make n (-1) in
  let seen = Array.make n false in
  seen.(s) <- true;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Csr.iter_neighbors g u (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          parent.(v) <- u;
          Queue.add v q
        end)
  done;
  (parent, seen)

let reconstruct parent s t =
  let rec go acc v = if v = s then s :: acc else go (v :: acc) parent.(v) in
  go [] t

let bfs_path g s t =
  let parent, seen = bfs_parents g s in
  if not seen.(t) then None else Some (reconstruct parent s t)

let dijkstra_with_parents g points s =
  let n = Csr.node_count g in
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  dist.(s) <- 0.;
  let heap = Heap.create () in
  Heap.push heap 0. s;
  while not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.min_value heap in
    Heap.remove_min heap;
    (* [dist] only decreases, so exactly one entry per node carries
       its final distance; strictly larger entries are stale *)
    if d <= dist.(u) then
      Csr.iter_neighbors g u (fun v ->
          let w = Geometry.Point.dist points.(u) points.(v) in
          let nd = d +. w in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            parent.(v) <- u;
            Heap.push heap nd v
          end)
  done;
  (dist, parent)

let dijkstra_path g points s t =
  let dist, parent = dijkstra_with_parents g points s in
  if dist.(t) = infinity then None else Some (reconstruct parent s t)

let path_length points p =
  let rec go acc = function
    | u :: (v :: _ as rest) ->
      go (acc +. Geometry.Point.dist points.(u) points.(v)) rest
    | [ _ ] | [] -> acc
  in
  go 0. p

let path_hops = function [] -> 0 | p -> List.length p - 1

let is_path g = function
  | [] -> false
  | p ->
    let rec go = function
      | u :: (v :: _ as rest) -> Csr.mem_edge g u v && go rest
      | [ _ ] | [] -> true
    in
    go p

let eccentricity g s =
  Array.fold_left
    (fun acc d -> if d <> max_int && d > acc then d else acc)
    0 (Csr.bfs g s)

let diameter g =
  let n = Csr.node_count g in
  let best = ref 0 in
  for s = 0 to n - 1 do
    let e = eccentricity g s in
    if e > !best then best := e
  done;
  !best

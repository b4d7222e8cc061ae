module P = Geometry.Point

let build points ~radius =
  if radius <= 0. then invalid_arg "Udg.build: radius <= 0";
  let n = Array.length points in
  let g = Netgraph.Graph.create n in
  if n > 1 then begin
    let grid = Geometry.Grid.create ~cell_size:radius points in
    for u = 0 to n - 1 do
      List.iter
        (fun v -> if v > u then Netgraph.Graph.add_edge g u v)
        (Geometry.Grid.neighbors_within grid u radius)
    done
  end;
  g

(* CSR-native construction: two grid passes (count, fill) with the
   same in-range predicate as [build], so the edge set is identical;
   both passes write only node-[u]-owned slots and read the immutable
   cell grid, so they fan out over the pool's domains and the result
   is bit-identical for any job count.  Each node's neighbor query is
   charged to [grid.queries] on the caller's domain after the join, as
   [build]'s per-node grid queries are. *)
let c_grid_queries = Obs.counter "grid.queries"

let build_csr ?pool points ~radius =
  if radius <= 0. then invalid_arg "Udg.build_csr: radius <= 0";
  let n = Array.length points in
  let deg = Array.make (max 1 (n + 1)) 0 in
  if n > 1 then begin
    let grid = Cellgrid.create ~cell_size:radius points in
    let for_all_nodes body =
      match pool with
      | Some p -> Netgraph.Pool.parallel_for p ~n (fun () -> body)
      | None ->
        for u = 0 to n - 1 do
          body u
        done
    in
    let count u =
      let d = ref 0 in
      Cellgrid.iter_near grid u (fun v ->
          if v <> u && P.dist points.(u) points.(v) <= radius then incr d);
      deg.(u + 1) <- !d
    in
    for_all_nodes count;
    let offsets = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      offsets.(u + 1) <- offsets.(u) + deg.(u + 1)
    done;
    let targets = Array.make offsets.(n) 0 in
    let fill u =
      let k = ref offsets.(u) in
      Cellgrid.iter_near grid u (fun v ->
          if v <> u && P.dist points.(u) points.(v) <= radius then begin
            targets.(!k) <- v;
            incr k
          end);
      (* cells are scanned in row-major order, so the row is not yet
         sorted by id; degrees are tiny — insertion sort in place *)
      for i = offsets.(u) + 1 to offsets.(u + 1) - 1 do
        let x = targets.(i) in
        let j = ref (i - 1) in
        while !j >= offsets.(u) && targets.(!j) > x do
          targets.(!j + 1) <- targets.(!j);
          decr j
        done;
        targets.(!j + 1) <- x
      done
    in
    for_all_nodes fill;
    Obs.add c_grid_queries n;
    Netgraph.Csr.of_rows ~offsets ~targets ()
  end
  else
    Netgraph.Csr.of_rows ~offsets:(Array.make (n + 1) 0) ~targets:[||] ()

let neighborhood g u ~hops =
  let dist = Netgraph.Traversal.bfs g u in
  let acc = ref [] in
  Array.iteri (fun v d -> if d <= hops then acc := v :: !acc) dist;
  List.rev !acc

let is_udg points ~radius g =
  let n = Array.length points in
  Netgraph.Graph.node_count g = n
  &&
  if radius <= 0. then
    (* degenerate radius the grid cannot index; only coincident pairs
       at radius = 0 can be in range, so scan pairs directly *)
    let ok = ref true in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let in_range = P.dist points.(u) points.(v) <= radius in
        if in_range <> Netgraph.Graph.has_edge g u v then ok := false
      done
    done;
    !ok
  else if n <= 1 then Netgraph.Graph.edge_count g = 0
  else begin
    (* every in-range pair (found by the grid, O(n) of them for
       bounded density) must be an edge; then matching edge counts
       rule out any out-of-range edge without scanning the n^2
       absent pairs *)
    let grid = Geometry.Grid.create ~cell_size:radius points in
    let in_range = ref 0 in
    let all_edges = ref true in
    for u = 0 to n - 1 do
      List.iter
        (fun v ->
          if v > u then begin
            incr in_range;
            if not (Netgraph.Graph.has_edge g u v) then all_edges := false
          end)
        (Geometry.Grid.neighbors_within grid u radius)
    done;
    !all_edges && Netgraph.Graph.edge_count g = !in_range
  end


let build_quasi rng points ~r_min ~r_max =
  if r_min <= 0. || r_max < r_min then
    invalid_arg "Udg.build_quasi: need 0 < r_min <= r_max";
  let n = Array.length points in
  let g = Netgraph.Graph.create n in
  if n > 1 then begin
    let grid = Geometry.Grid.create ~cell_size:r_max points in
    for u = 0 to n - 1 do
      List.iter
        (fun v ->
          if v > u then begin
            let d = P.dist points.(u) points.(v) in
            let keep =
              d <= r_min
              || (r_max > r_min
                 && Rand.float rng 1. < (r_max -. d) /. (r_max -. r_min))
            in
            if keep then Netgraph.Graph.add_edge g u v
          end)
        (Geometry.Grid.neighbors_within grid u r_max)
    done
  end;
  g

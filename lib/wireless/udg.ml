module P = Geometry.Point

(* CSR-native construction, two closure-free passes (count, fill).
   Coordinates are copied into two float arrays in bucket order, so
   each grid row of a node's 3x3 block is one contiguous run of
   [Cellgrid.order]; the in-range predicate is [P.dist u v <= radius]
   spelled out.  The fill pass writes each row straight into its
   final slots and sorts it there (cells are scanned row-major, not
   by id).  Both passes write only node [u]'s own slots and read the
   immutable grid, so they fan out over the pool and the snapshot is
   bit-identical for any job count.  A one-pass variant (rows to
   per-domain scratch, then a blit) scans once but leaves ~2x the row
   arrays as major-heap garbage and a higher peak heap.  Each node's
   neighbor query is charged to [grid.queries] on the caller's domain
   after the join, as [Geometry.Grid] charges its per-node queries. *)
let c_grid_queries = Obs.counter "grid.queries"
let d_query_results = Obs.dist "grid.query_results"

(* Dense deployments (a few nodes per radius-wide cell) stay on the
   radius grid; only wide, sparse spans get wider cells. *)
let max_cells n = (4 * n) + 64

let build_csr ?pool points ~radius =
  if radius <= 0. then invalid_arg "Udg.build_csr: radius <= 0";
  let n = Array.length points in
  if n <= 1 then
    Netgraph.Csr.of_rows ~offsets:(Array.make (n + 1) 0) ~targets:[||] ()
  else begin
    let grid =
      Cellgrid.create ~max_cells:(max_cells n) ~cell_size:radius points
    in
    let nx = grid.Cellgrid.nx and ny = grid.Cellgrid.ny in
    let start = grid.Cellgrid.start and order = grid.Cellgrid.order in
    let cell_ix = grid.Cellgrid.cell_ix in
    let xs = Array.make n 0. and ys = Array.make n 0. in
    for i = 0 to n - 1 do
      let p = points.(order.(i)) in
      xs.(i) <- p.P.x;
      ys.(i) <- p.P.y
    done;
    (* in-range nodes of the node at bucket position [i]: counted, or
       with [fill] written to [dst] from [w0]; returns the count *)
    let scan ~fill dst w0 i =
      let u = order.(i) in
      let xu = xs.(i) and yu = ys.(i) in
      let k = cell_ix.(u) in
      let cx = k mod nx and cy = k / nx in
      let x_lo = if cx > 0 then cx - 1 else 0 in
      let x_hi = if cx < nx - 1 then cx + 1 else cx in
      let w = ref w0 in
      for y = (if cy > 0 then cy - 1 else 0) to
              if cy < ny - 1 then cy + 1 else cy do
        let r = y * nx in
        for j = start.(r + x_lo) to start.(r + x_hi + 1) - 1 do
          if j <> i then begin
            let dx = xu -. xs.(j) and dy = yu -. ys.(j) in
            if sqrt ((dx *. dx) +. (dy *. dy)) <= radius then begin
              if fill then dst.(!w) <- order.(j);
              incr w
            end
          end
        done
      done;
      !w - w0
    in
    let for_all_nodes body =
      match pool with
      | Some p -> Netgraph.Pool.parallel_for p ~n (fun () -> body)
      | None ->
        for i = 0 to n - 1 do
          body i
        done
    in
    let offsets = Array.make (n + 1) 0 in
    for_all_nodes (fun i ->
        offsets.(order.(i) + 1) <- scan ~fill:false [||] 0 i);
    for u = 0 to n - 1 do
      offsets.(u + 1) <- offsets.(u) + offsets.(u + 1)
    done;
    let targets = Array.make offsets.(n) 0 in
    for_all_nodes (fun i ->
        let lo = offsets.(order.(i)) in
        let hi = lo + scan ~fill:true targets lo i in
        (* insertion sort: rows are node degrees *)
        for a = lo + 1 to hi - 1 do
          let v = targets.(a) in
          let c = ref (a - 1) in
          while !c >= lo && targets.(!c) > v do
            targets.(!c + 1) <- targets.(!c);
            decr c
          done;
          targets.(!c + 1) <- v
        done);
    Obs.add c_grid_queries n;
    Netgraph.Csr.of_rows ~offsets ~targets ()
  end

let observe_queries c =
  let n = Netgraph.Csr.node_count c in
  if Obs.enabled () && n > 1 then
    for u = 0 to n - 1 do
      Obs.observe d_query_results (float_of_int (Netgraph.Csr.degree c u))
    done

let build points ~radius =
  if radius <= 0. then invalid_arg "Udg.build: radius <= 0";
  let c = build_csr points ~radius in
  observe_queries c;
  Netgraph.Csr.to_graph c

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
       absent pairs.  The grid compares squared distances, which at
       [radius] itself can round the other way from [P.dist]'s sqrt,
       so it only proposes candidates, over a slightly wider range,
       and [P.dist <= radius] decides. *)
    let wide = radius *. (1. +. 1e-9) in
    let grid = Geometry.Grid.create ~cell_size:wide points in
    let in_range = ref 0 in
    let all_edges = ref true in
    for u = 0 to n - 1 do
      List.iter
        (fun v ->
          if v > u && P.dist points.(u) points.(v) <= radius then begin
            incr in_range;
            if not (Netgraph.Graph.has_edge g u v) then all_edges := false
          end)
        (Geometry.Grid.neighbors_within grid u wide)
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

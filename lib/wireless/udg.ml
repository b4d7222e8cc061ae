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
   after the join, one per node. *)
let c_grid_queries = Obs.counter "grid.queries"
let d_query_results = Obs.dist "grid.query_results"

let build ?pool points ~radius =
  if radius <= 0. then invalid_arg "Udg.build: radius <= 0";
  let n = Array.length points in
  if n <= 1 then
    Netgraph.Csr.of_rows ~offsets:(Array.make (n + 1) 0) ~targets:[||] ()
  else begin
    let grid = Cellgrid.create ~cell_size:radius points in
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

let neighborhood g u ~hops =
  let dist = Netgraph.Csr.bfs g u in
  let acc = ref [] in
  Array.iteri (fun v d -> if d <= hops then acc := v :: !acc) dist;
  List.rev !acc

(* The r_max UDG's edges, each drawn once in ascending (u, v) order:
   [build] alone decides |uv| <= r_max. *)
let build_quasi rng points ~r_min ~r_max =
  if r_min <= 0. || r_max < r_min then
    invalid_arg "Udg.build_quasi: need 0 < r_min <= r_max";
  let udg = build points ~radius:r_max in
  observe_queries udg;
  Netgraph.Csr.filter_edges udg (fun u v ->
      let d = P.dist points.(u) points.(v) in
      d <= r_min
      || (r_max > r_min
         && Rand.float rng 1. < (r_max -. d) /. (r_max -. r_min)))

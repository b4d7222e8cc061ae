(* Kruskal with path-compressing union-find. *)

(* explicit (weight, u, v) comparator: Float.compare on the weight
   keeps the hot sort monomorphic (no polymorphic-compare boxing) and
   orders any nan deterministically; ties break on (u, v) *)
let cmp_edge (w1, u1, v1) (w2, u2, v2) =
  let c = Float.compare w1 w2 in
  if c <> 0 then c
  else
    let c = Int.compare u1 u2 in
    if c <> 0 then c else Int.compare v1 v2

let find parent x =
  let rec root x = if parent.(x) = x then x else root parent.(x) in
  let r = root x in
  let rec compress x =
    if parent.(x) <> r then begin
      let next = parent.(x) in
      parent.(x) <- r;
      compress next
    end
  in
  compress x;
  r

let minimum_spanning_forest g points =
  let n = Csr.node_count g in
  let m = Csr.edge_count g in
  (* edges in one flat array sorted in place — no per-edge list cells;
     ties break on (u, v) so the forest is deterministic regardless of
     iteration order *)
  let edges = Array.make m (0., 0, 0) in
  let i = ref 0 in
  Csr.iter_edges g (fun u v ->
      edges.(!i) <- (Geometry.Point.dist points.(u) points.(v), u, v);
      incr i);
  Array.sort cmp_edge edges;
  let parent = Array.init n (fun i -> i) in
  let forest =
    Array.fold_left
      (fun acc (_, u, v) ->
        let ru = find parent u and rv = find parent v in
        if ru <> rv then begin
          parent.(ru) <- rv;
          (u, v) :: acc
        end
        else acc)
      [] edges
  in
  Csr.of_edges n forest

let forest_weight g points = Metrics.total_edge_length g points

let is_spanning_forest g f =
  Csr.node_count f = Csr.node_count g
  && Csr.fold_edges f (fun acc u v -> acc && Csr.mem_edge g u v) true
  (* acyclic: edges = nodes - components *)
  && Csr.edge_count f = Csr.node_count f - Components.count f
  (* connects the same components *)
  && Array.for_all2 Int.equal (Csr.component_labels f)
       (Csr.component_labels g)

(* Adjacency sets per node.  [Set.Make (Int)] keeps neighbor lists
   sorted and duplicate-free with logarithmic updates; edge count is
   maintained incrementally. *)

module IntSet = Set.Make (Int)

type t = { adj : IntSet.t array; mutable edges : int }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { adj = Array.make n IntSet.empty; edges = 0 }

let node_count g = Array.length g.adj
let edge_count g = g.edges

let check g u v =
  let n = node_count g in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: node id out of range (%d, %d)" u v);
  if u = v then invalid_arg "Graph: self-loop"

let add_edge g u v =
  check g u v;
  if not (IntSet.mem v g.adj.(u)) then begin
    g.adj.(u) <- IntSet.add v g.adj.(u);
    g.adj.(v) <- IntSet.add u g.adj.(v);
    g.edges <- g.edges + 1
  end

let remove_edge g u v =
  check g u v;
  if IntSet.mem v g.adj.(u) then begin
    g.adj.(u) <- IntSet.remove v g.adj.(u);
    g.adj.(v) <- IntSet.remove u g.adj.(v);
    g.edges <- g.edges - 1
  end

let has_edge g u v =
  let n = node_count g in
  u >= 0 && u < n && v >= 0 && v < n && u <> v && IntSet.mem v g.adj.(u)

let neighbors g u = IntSet.elements g.adj.(u)
let degree g u = IntSet.cardinal g.adj.(u)
let iter_neighbors g u f = IntSet.iter f g.adj.(u)
let fold_neighbors g u f init = IntSet.fold (fun v acc -> f acc v) g.adj.(u) init

let iter_edges g f =
  Array.iteri
    (fun u s -> IntSet.iter (fun v -> if u < v then f u v) s)
    g.adj

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g (fun acc u v -> (u, v) :: acc) [])

let compare_edge ((u1 : int), (v1 : int)) (u2, v2) =
  if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let copy g = { adj = Array.copy g.adj; edges = g.edges }

let union g1 g2 =
  if node_count g1 <> node_count g2 then
    invalid_arg "Graph.union: node count mismatch";
  let g = copy g1 in
  iter_edges g2 (fun u v -> add_edge g u v);
  g

let is_subgraph g1 g2 =
  node_count g1 = node_count g2
  && fold_edges g1 (fun acc u v -> acc && has_edge g2 u v) true

let induced g keep =
  let h = create (node_count g) in
  iter_edges g (fun u v -> if keep u && keep v then add_edge h u v);
  h

let equal g1 g2 =
  node_count g1 = node_count g2
  && edge_count g1 = edge_count g2
  && is_subgraph g1 g2

let pp fmt g =
  Format.fprintf fmt "graph(n=%d, m=%d)" (node_count g) (edge_count g)

(* Deterministic hash-table iteration (the D002 allowlist lives here):
   materialize the bindings, sort by key with an explicit comparator,
   then visit.  Callers whose iteration order can reach outputs or
   metrics route through these instead of Hashtbl.iter/fold. *)

let sorted_tbl_bindings cmp tbl =
  List.sort
    (fun (k1, _) (k2, _) -> cmp k1 k2)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let sorted_tbl_iter cmp f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_tbl_bindings cmp tbl)

let sorted_tbl_fold cmp f tbl init =
  List.fold_left
    (fun acc (k, v) -> f k v acc)
    init (sorted_tbl_bindings cmp tbl)

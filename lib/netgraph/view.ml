(* One read-only face over the two graph representations.  The
   dispatch is a single variant match per call; the per-neighbor work
   is the underlying representation's own iteration, so algorithms
   written against a view pay one branch per API call, not per
   neighbor. *)

type t = Adj of Graph.t | Snapshot of Csr.t

let of_graph g = Adj g
let of_csr c = Snapshot c

let same a b =
  match a, b with
  | Adj g, Adj h -> g == h
  | Snapshot c, Snapshot d -> c == d
  | _ -> false

let node_count = function
  | Adj g -> Graph.node_count g
  | Snapshot c -> Csr.node_count c

let edge_count = function
  | Adj g -> Graph.edge_count g
  | Snapshot c -> Csr.edge_count c

let degree v u =
  match v with Adj g -> Graph.degree g u | Snapshot c -> Csr.degree c u

let has_edge v u w =
  match v with
  | Adj g -> Graph.has_edge g u w
  | Snapshot c -> Csr.mem_edge c u w

let iter_neighbors v u f =
  match v with
  | Adj g -> Graph.iter_neighbors g u f
  | Snapshot c -> Csr.iter_neighbors c u f

let fold_neighbors v u f init =
  match v with
  | Adj g -> Graph.fold_neighbors g u f init
  | Snapshot c -> Csr.fold_neighbors c u f init

let neighbors v u =
  match v with
  | Adj g -> Graph.neighbors g u
  | Snapshot c -> Csr.neighbors c u

let iter_edges v f =
  match v with
  | Adj g -> Graph.iter_edges g f
  | Snapshot c -> Csr.iter_edges c f

let fold_edges v f init =
  match v with
  | Adj g -> Graph.fold_edges g f init
  | Snapshot c -> Csr.fold_edges c f init

let edges = function
  | Adj g -> Graph.edges g
  | Snapshot c -> Csr.edges c

let to_csr ?points ?beta v =
  match v with
  | Adj g -> Csr.of_graph ?points ?beta g
  | Snapshot c -> (
    match points, beta with
    | None, None -> c
    | None, Some _ -> invalid_arg "View.to_csr: beta requires points"
    | Some pts, None -> if Csr.has_weights c then c else Csr.with_weights c pts
    | Some pts, Some b ->
      if Csr.has_weights c && Csr.has_power_weights c then c
      else Csr.with_weights ~beta:b c pts)

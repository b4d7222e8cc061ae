type t = Csr.t

let of_edges = Csr.of_edges
let equal = Csr.equal

let compare_edge ((u1 : int), (v1 : int)) (u2, v2) =
  if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2

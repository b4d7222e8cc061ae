type t = Csr.t

let of_graph g = g

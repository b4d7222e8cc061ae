type t = Csr.t

let of_edges = Csr.of_edges
let equal = Csr.equal

let compare_edge ((u1 : int), (v1 : int)) (u2, v2) =
  if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2

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

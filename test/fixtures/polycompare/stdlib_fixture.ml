(* The guard's stdlib case: both functions are [int]-typed, yet
   [List.mem] and the generic [Hashtbl.find_opt] compare with the
   polymorphic [compare] inside the stdlib, so the object shows only
   calls to them, no [caml_compare]. *)
let has (x : int) l = List.mem x l
let lookup (tbl : (int, int) Hashtbl.t) (k : int) = Hashtbl.find_opt tbl k

(* The polymorphic-compare guard's negative case: [same] is inferred
   ['a -> 'a -> bool], so its [=] is a [caml_equal] call. *)
let same a b = a = b

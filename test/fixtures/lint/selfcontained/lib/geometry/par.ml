(* Parallel side of the fixture: a Pool.parallel_for callback that
   reaches Random, shared mutable state and direct I/O.  The rules are
   single-file, so each site fires where it stands — in the callback's
   helpers and in [cold], which no callback reaches, alike.  Never
   built. *)

let hits = ref 0 (* M001: shared toplevel ref *)

let noise () = Random.float 1.0 (* D001 *)

let jitter x =
  incr hits;
  x +. noise ()

let step u =
  print_endline "step" (* E001: direct I/O in library code *) ;
  jitter u

let run pool xs = Netgraph.Pool.parallel_for pool ~n:(Array.length xs) (fun i -> step xs.(i))

let cold () = Random.bits () (* D001: reachability does not matter *)

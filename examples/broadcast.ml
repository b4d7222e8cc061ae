(* Broadcast: the cost of flooding vs backbone-based dissemination —
   Section I's motivation, measured.

     dune exec examples/broadcast.exe

   As density grows, blind flooding always costs n transmissions,
   while the backbone broadcast costs only the backbone size, which
   the paper proves is within a constant factor of the minimum
   dominating set and independent of density.  RNG neighbor-
   elimination relay sits between the two. *)

let () =
  Printf.printf "%5s %8s | %9s %9s %9s | %9s %9s %9s\n" "n" "UDG deg"
    "flood" "rng-relay" "backbone" "cover-f" "cover-r" "cover-b";
  List.iter
    (fun n ->
      let rng = Wireless.Rand.create (Int64.of_int (1000 + n)) in
      let pts, _ =
        Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius:60.
          ~max_attempts:1000
      in
      let snap = Core.Shard.pipeline pts ~radius:60. in
      let udg = snap.Core.Shard.udg and backbone = snap.Core.Shard.backbone in
      let f = Core.Broadcast.flood udg ~source:0 in
      let r = Core.Broadcast.rng_relay udg pts ~source:0 in
      let b = Core.Broadcast.backbone_broadcast udg ~backbone ~source:0 in
      let deg =
        (Netgraph.Metrics.degree_stats udg)
          .Netgraph.Metrics.deg_avg
      in
      Printf.printf "%5d %8.1f | %9d %9d %9d | %9.2f %9.2f %9.2f\n" n deg
        f.Core.Broadcast.transmissions r.Core.Broadcast.transmissions
        b.Core.Broadcast.transmissions
        (Core.Broadcast.coverage f) (Core.Broadcast.coverage r)
        (Core.Broadcast.coverage b))
    [ 50; 100; 150; 200; 300; 400 ];
  Printf.printf
    "\nflooding scales with n; the backbone broadcast scales with the\n\
     dominating set (roughly the area over the coverage disk area),\n\
     which stops growing once the region is saturated.\n"

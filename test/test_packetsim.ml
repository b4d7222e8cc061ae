(* Packet-level routing: the distsim-hosted GPSR must traverse exactly
   the path the centralized route computation predicts. *)

module G = Netgraph.Graph
module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  pts

let test_packet_equals_path_gpsr () =
  for seed = 930 to 933 do
    let pts = instance (Int64.of_int seed) 60 50. in
    let bb = Core.Backbone.build pts ~radius:50. in
    let planar = (Core.Backbone.ldel_full bb).Core.Ldel.planar in
    let n = Array.length pts in
    for src = 0 to n - 1 do
      let dst = (src + (n / 2)) mod n in
      if src <> dst then begin
        let expected =
          Core.Routing.gfg (Netgraph.View.of_graph planar) pts ~src ~dst
        in
        let got = Core.Packetsim.gpsr planar pts ~src ~dst in
        match expected with
        | Some path ->
          check "delivered" true got.Core.Packetsim.delivered;
          check "same trajectory" true (got.Core.Packetsim.path = path);
          checki "one transmission per hop"
            (Netgraph.Traversal.path_hops path)
            got.Core.Packetsim.transmissions
        | None -> check "both undelivered" false got.Core.Packetsim.delivered
      end
    done
  done

let test_packet_greedy_drops_at_minimum () =
  (* the "C" shape from the routing tests: greedy packets vanish at
     the dead end, GPSR packets arrive *)
  let pts =
    [|
      P.make 0. 0.; P.make 0. 2.; P.make 2. 2.; P.make 2. 0.; P.make 0.9 0.;
    |]
  in
  let g = G.of_edges 5 [ (0, 4); (0, 1); (1, 2); (2, 3) ] in
  let dropped = Core.Packetsim.greedy g pts ~src:0 ~dst:3 in
  check "greedy packet dropped" false dropped.Core.Packetsim.delivered;
  let ok = Core.Packetsim.gpsr g pts ~src:0 ~dst:3 in
  check "gpsr packet delivered" true ok.Core.Packetsim.delivered;
  check "trajectory valid" true
    (Netgraph.Traversal.is_path g ok.Core.Packetsim.path)

let test_packet_self_delivery () =
  let pts = instance 934L 20 60. in
  let g = Wireless.Udg.build pts ~radius:60. in
  let r = Core.Packetsim.gpsr g pts ~src:3 ~dst:3 in
  check "delivered to self" true r.Core.Packetsim.delivered;
  checki "no transmissions" 0 r.Core.Packetsim.transmissions

let test_packet_adjacent () =
  let pts = [| P.make 0. 0.; P.make 1. 0. |] in
  let g = G.of_edges 2 [ (0, 1) ] in
  let r = Core.Packetsim.gpsr g pts ~src:0 ~dst:1 in
  check "delivered" true r.Core.Packetsim.delivered;
  Alcotest.(check (list int)) "direct" [ 0; 1 ] r.Core.Packetsim.path;
  checki "one transmission" 1 r.Core.Packetsim.transmissions

let test_packet_unreachable () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 50. 0.; P.make 51. 0. |] in
  let g = G.of_edges 4 [ (0, 1); (2, 3) ] in
  let r = Core.Packetsim.gpsr g pts ~src:0 ~dst:3 in
  check "not delivered" false r.Core.Packetsim.delivered

let test_many () =
  let pts = instance 935L 60 50. in
  let bb = Core.Backbone.build pts ~radius:50. in
  let planar = (Core.Backbone.ldel_full bb).Core.Ldel.planar in
  let delivered, pairs, avg_tx =
    Core.Packetsim.many planar pts ~pairs:50
      (Wireless.Rand.create 7L)
      ~router:`Gpsr
  in
  checki "all delivered on planar connected" pairs delivered;
  check "sane cost" true (avg_tx >= 1. && avg_tx < 100.)

(* Fewer than two nodes admit no src <> dst pair: [many] returns at
   once instead of drawing pairs forever (n = 1) or from an empty
   range (n = 0). *)
let test_many_tiny () =
  List.iter
    (fun pts ->
      let g = G.create (Array.length pts) in
      List.iter
        (fun router ->
          check
            (Printf.sprintf "n = %d: nothing sent" (Array.length pts))
            true
            (Core.Packetsim.many g pts ~pairs:5 (Wireless.Rand.create 8L)
               ~router
            = (0, 0, 0.)))
        [ `Gpsr; `Greedy ])
    [ [||]; [| P.make 0. 0. |] ]

let suites =
  [
    ( "core.packetsim",
      [
        Alcotest.test_case "packet GPSR ≡ path GPSR" `Slow
          test_packet_equals_path_gpsr;
        Alcotest.test_case "greedy drops, gpsr recovers" `Quick
          test_packet_greedy_drops_at_minimum;
        Alcotest.test_case "self delivery" `Quick test_packet_self_delivery;
        Alcotest.test_case "adjacent" `Quick test_packet_adjacent;
        Alcotest.test_case "unreachable" `Quick test_packet_unreachable;
        Alcotest.test_case "bulk workload" `Quick test_many;
        Alcotest.test_case "bulk workload on n < 2" `Quick test_many_tiny;
      ] );
  ]

(* Broadcast protocols: coverage and transmission counts. *)

module C = Netgraph.Csr

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* a deployment and its backbone snapshot; every relay runs on the
   snapshot's UDG *)
let instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  (pts, Core.Shard.pipeline pts ~radius)

let test_flood_full_coverage_and_cost () =
  let _, snap = instance 900L 80 50. in
  let udg = snap.Core.Shard.udg in
  let o = Core.Broadcast.flood udg ~source:0 in
  Alcotest.(check (float 1e-9)) "full coverage" 1. (Core.Broadcast.coverage o);
  (* blind flooding: every node transmits exactly once *)
  checki "n transmissions" (C.node_count udg) o.Core.Broadcast.transmissions

let test_flood_latency_is_eccentricity () =
  let _, snap = instance 901L 60 40. in
  let udg = snap.Core.Shard.udg in
  let o = Core.Broadcast.flood udg ~source:0 in
  let ecc = Netgraph.Traversal.eccentricity udg 0 in
  (* one round per hop ring, +1 to observe quiescence, +1 for the
     initial send round *)
  check "latency tracks eccentricity" true
    (o.Core.Broadcast.rounds >= ecc && o.Core.Broadcast.rounds <= ecc + 2)

let test_backbone_broadcast () =
  for seed = 910 to 914 do
    let _, snap = instance (Int64.of_int seed) 80 50. in
    let udg = snap.Core.Shard.udg and backbone = snap.Core.Shard.backbone in
    let o = Core.Broadcast.backbone_broadcast udg ~backbone ~source:5 in
    Alcotest.(check (float 1e-9)) "full coverage" 1. (Core.Broadcast.coverage o);
    let backbone_size =
      Array.fold_left (fun c b -> if b then c + 1 else c) 0 backbone
    in
    (* only backbone nodes plus possibly the source transmit *)
    check "cheaper than flooding" true
      (o.Core.Broadcast.transmissions <= backbone_size + 1);
    check "actually cheaper" true
      (o.Core.Broadcast.transmissions < C.node_count udg)
  done

let test_backbone_source_is_dominatee () =
  (* a dominatee source must still reach everyone (its dominator picks
     the packet up) *)
  let _, s = instance 915L 70 50. in
  let udg = s.Core.Shard.udg and backbone = s.Core.Shard.backbone in
  let dominatee =
    match
      Array.to_list s.Core.Shard.roles
      |> List.mapi (fun i r -> (i, r))
      |> List.find_opt (fun (i, r) ->
             r = Core.Mis.Dominatee && not backbone.(i))
    with
    | Some (i, _) -> i
    | None -> 0
  in
  let o = Core.Broadcast.backbone_broadcast udg ~backbone ~source:dominatee in
  Alcotest.(check (float 1e-9)) "full coverage" 1. (Core.Broadcast.coverage o)

let test_rng_relay () =
  for seed = 920 to 922 do
    let pts, snap = instance (Int64.of_int seed) 80 50. in
    let udg = snap.Core.Shard.udg in
    let o = Core.Broadcast.rng_relay udg pts ~source:0 in
    Alcotest.(check (float 1e-9)) "full coverage" 1. (Core.Broadcast.coverage o);
    check "no worse than flooding" true
      (o.Core.Broadcast.transmissions <= C.node_count udg)
  done

let test_broadcast_disconnected () =
  (* two components: only the source's side is reached *)
  let udg = Netgraph.Csr.of_edges 4 [ (0, 1); (2, 3) ] in
  let o = Core.Broadcast.flood udg ~source:0 in
  check "own side reached" true
    (o.Core.Broadcast.reached.(0) && o.Core.Broadcast.reached.(1));
  check "other side not" true
    ((not o.Core.Broadcast.reached.(2)) && not o.Core.Broadcast.reached.(3));
  Alcotest.(check (float 1e-9)) "half coverage" 0.5 (Core.Broadcast.coverage o)

let test_broadcast_single_node () =
  let udg = Netgraph.Csr.of_edges 1 [] in
  let o = Core.Broadcast.flood udg ~source:0 in
  check "source reached" true o.Core.Broadcast.reached.(0);
  checki "one send" 1 o.Core.Broadcast.transmissions

let suites =
  [
    ( "core.broadcast",
      [
        Alcotest.test_case "flood: coverage and cost" `Quick
          test_flood_full_coverage_and_cost;
        Alcotest.test_case "flood: latency" `Quick
          test_flood_latency_is_eccentricity;
        Alcotest.test_case "backbone broadcast" `Quick test_backbone_broadcast;
        Alcotest.test_case "backbone: dominatee source" `Quick
          test_backbone_source_is_dominatee;
        Alcotest.test_case "RNG relay" `Quick test_rng_relay;
        Alcotest.test_case "disconnected network" `Quick
          test_broadcast_disconnected;
        Alcotest.test_case "single node" `Quick test_broadcast_single_node;
      ] );
  ]

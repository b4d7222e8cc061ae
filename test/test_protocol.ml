(* The distributed protocol stack: exact agreement with the
   centralized pipeline, message bounds, per-phase accounting. *)

module Csr = Netgraph.Csr
module E = Distsim.Engine

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  pts

let test_matches_centralized () =
  for seed = 200 to 207 do
    let pts = instance (Int64.of_int seed) 70 50. in
    let bb = Core.Backbone.build pts ~radius:50. in
    let pr = Core.Protocol.run pts ~radius:50. in
    let s = bb.Core.Backbone.snap in
    let ldel = Tgraph.ldel_build s.Core.Shard.icds pts ~radius:50. in
    check "roles" true (pr.Core.Protocol.roles = s.Core.Shard.roles);
    check "connectors" true
      (pr.Core.Protocol.connector
      = Array.mapi
          (fun u b -> b && s.Core.Shard.roles.(u) <> Core.Mis.Dominator)
          s.Core.Shard.backbone);
    check "cds edges" true
      (pr.Core.Protocol.cds_edges = Csr.edges s.Core.Shard.cds);
    check "icds edges" true
      (pr.Core.Protocol.icds_edges = Csr.edges s.Core.Shard.icds);
    check "ldel triangles" true
      (pr.Core.Protocol.ldel_triangles = ldel.Tgraph.triangles);
    check "kept triangles" true
      (pr.Core.Protocol.kept_triangles = ldel.Tgraph.kept_triangles);
    check "gabriel edges" true
      (pr.Core.Protocol.gabriel_edges = ldel.Tgraph.gabriel_edges);
    check "final graphs" true
      (Csr.equal pr.Core.Protocol.ldel_graph bb.Core.Backbone.ldel_icds_g)
  done

let test_message_kinds_present () =
  let pts = instance 210L 80 50. in
  let pr = Core.Protocol.run pts ~radius:50. in
  let kinds s = List.map fst s.E.by_kind in
  check "hello in clustering" true
    (List.mem "Hello" (kinds pr.Core.Protocol.stats_cluster));
  check "IamDominator" true
    (List.mem "IamDominator" (kinds pr.Core.Protocol.stats_cluster));
  check "TryConnector" true
    (List.mem "TryConnector" (kinds pr.Core.Protocol.stats_connector));
  check "Status" true (List.mem "Status" (kinds pr.Core.Protocol.stats_status));
  check "Proposal" true
    (List.mem "Proposal" (kinds pr.Core.Protocol.stats_ldel))

let test_hello_and_status_exactly_once () =
  let pts = instance 211L 60 50. in
  let n = Array.length pts in
  let pr = Core.Protocol.run pts ~radius:50. in
  checki "hello = n"
    n
    (List.assoc "Hello" pr.Core.Protocol.stats_cluster.E.by_kind);
  checki "status = n"
    n
    (List.assoc "Status" pr.Core.Protocol.stats_status.E.by_kind)

let test_iamdominatee_bound () =
  (* Lemma 1: a node has at most 5 dominators, so at most 5
     IamDominatee broadcasts each *)
  let pts = instance 212L 90 50. in
  let n = Array.length pts in
  let pr = Core.Protocol.run pts ~radius:50. in
  match List.assoc_opt "IamDominatee" pr.Core.Protocol.stats_cluster.E.by_kind with
  | Some total -> check "≤ 5 per node" true (total <= 5 * n)
  | None -> Alcotest.fail "no IamDominatee messages"

let test_per_node_message_bound () =
  (* the paper's headline: O(1) messages per node.  Check a generous
     numeric constant across densities. *)
  List.iter
    (fun (seed, n, radius) ->
      let pts = instance seed n radius in
      let pr = Core.Protocol.run pts ~radius in
      let total = Core.Protocol.ldel_stats pr in
      check
        (Printf.sprintf "n=%d r=%g max per node" n radius)
        true
        (E.max_sent total <= 120))
    [ (220L, 50, 50.); (221L, 100, 50.); (222L, 150, 40.); (223L, 100, 70.) ]

let test_stats_monotone () =
  let pts = instance 213L 70 50. in
  let pr = Core.Protocol.run pts ~radius:50. in
  let c = E.total_sent (Core.Protocol.cds_stats pr) in
  let i = E.total_sent (Core.Protocol.icds_stats pr) in
  let l = E.total_sent (Core.Protocol.ldel_stats pr) in
  check "cds ≤ icds" true (c < i);
  check "icds ≤ ldel" true (i <= l)

let test_protocol_planar_output () =
  let pts = instance 214L 80 50. in
  let pr = Core.Protocol.run pts ~radius:50. in
  check "distributed PLDel(ICDS) planar" true
    (Netgraph.Planarity.is_planar pr.Core.Protocol.ldel_graph pts)

let test_two_node_network () =
  let pts = [| Geometry.Point.make 0. 0.; Geometry.Point.make 10. 0. |] in
  let pr = Core.Protocol.run pts ~radius:20. in
  (* node 0 wins, node 1 is its dominatee; no connectors *)
  check "0 dominator" true (pr.Core.Protocol.roles.(0) = Core.Mis.Dominator);
  check "1 dominatee" true (pr.Core.Protocol.roles.(1) = Core.Mis.Dominatee);
  check "no connectors" true
    (Array.for_all not pr.Core.Protocol.connector);
  Alcotest.(check (list (pair int int))) "no cds edges" [] pr.Core.Protocol.cds_edges

let test_path3_network () =
  (* collinear 0 - 1 - 2 with unit spacing: 0, 2 dominators, 1 the
     connector; the distributed run must find the 2-hop connector *)
  let pts =
    [|
      Geometry.Point.make 0. 0.;
      Geometry.Point.make 10. 0.;
      Geometry.Point.make 20. 0.;
    |]
  in
  let pr = Core.Protocol.run pts ~radius:12. in
  check "1 connector" true pr.Core.Protocol.connector.(1);
  Alcotest.(check (list (pair int int)))
    "cds chain" [ (0, 1); (1, 2) ] pr.Core.Protocol.cds_edges;
  (* the backbone is a path, so no triangle is ever proposed; the
     planarization gossip still runs on its schedule, once per
     backbone node per round *)
  let kind k =
    Option.value ~default:0
      (List.assoc_opt k (Core.Protocol.ldel_stats pr).E.by_kind)
  in
  checki "ShareTriangles per backbone node" 3 (kind "ShareTriangles");
  checki "RemainingTriangles per backbone node" 3 (kind "RemainingTriangles")

let test_ldel2_matches_centralized () =
  for seed = 240 to 244 do
    let pts = instance (Int64.of_int seed) 70 50. in
    let bb = Core.Backbone.build pts ~radius:50. in
    let l2c =
      Tgraph.ldel_build_k
        bb.Core.Backbone.snap.Core.Shard.icds
        pts ~radius:50. ~k:2
    in
    let l2d = Core.Protocol.run_ldel2 pts ~radius:50. in
    check "triangles equal" true
      (l2d.Core.Protocol.l2_triangles = l2c.Tgraph.triangles);
    check "gabriel equal" true
      (l2d.Core.Protocol.l2_gabriel_edges = l2c.Tgraph.gabriel_edges);
    check "graphs equal (planar without removal)" true
      (Csr.equal l2d.Core.Protocol.l2_graph l2c.Tgraph.planar);
    check "planar" true
      (Netgraph.Planarity.is_planar l2d.Core.Protocol.l2_graph pts)
  done

let suites =
  [
    ( "core.protocol",
      [
        Alcotest.test_case "≡ centralized pipeline" `Slow
          test_matches_centralized;
        Alcotest.test_case "message kinds present" `Quick
          test_message_kinds_present;
        Alcotest.test_case "hello/status once per node" `Quick
          test_hello_and_status_exactly_once;
        Alcotest.test_case "IamDominatee ≤ 5 per node" `Quick
          test_iamdominatee_bound;
        Alcotest.test_case "O(1) messages per node" `Slow
          test_per_node_message_bound;
        Alcotest.test_case "phase stats monotone" `Quick test_stats_monotone;
        Alcotest.test_case "distributed output planar" `Quick
          test_protocol_planar_output;
        Alcotest.test_case "two-node network" `Quick test_two_node_network;
        Alcotest.test_case "path-3 network" `Quick test_path3_network;
        Alcotest.test_case "LDel² pipeline ≡ centralized" `Slow
          test_ldel2_matches_centralized;
      ] );
  ]

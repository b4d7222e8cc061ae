(* Clustering: the smallest-ID maximal independent set. *)

module G = Netgraph.Csr

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let path n = G.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_path_greedy () =
  (* on a path 0-1-2-3-4 the greedy-by-id MIS is {0, 2, 4} *)
  let roles = Core.Mis.compute (path 5) in
  Alcotest.(check (list int)) "dominators" [ 0; 2; 4 ] (Core.Mis.dominators roles)

let test_star () =
  (* center 0 with leaves: 0 wins, everyone else dominated *)
  let g = G.of_edges 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  let roles = Core.Mis.compute g in
  Alcotest.(check (list int)) "center only" [ 0 ] (Core.Mis.dominators roles)

let test_star_center_large_id () =
  (* center has the LARGEST id: all leaves are independent and win *)
  let g = G.of_edges 5 [ (4, 0); (4, 1); (4, 2); (4, 3) ] in
  let roles = Core.Mis.compute g in
  Alcotest.(check (list int))
    "leaves win" [ 0; 1; 2; 3 ]
    (Core.Mis.dominators roles)

let test_isolated_nodes_are_dominators () =
  let roles = Core.Mis.compute (G.of_edges 3 []) in
  Alcotest.(check (list int)) "all" [ 0; 1; 2 ] (Core.Mis.dominators roles)

let test_greedy_equivalence () =
  (* the fixpoint of the local rule equals the sequential greedy MIS *)
  let rng = Wireless.Rand.create 50L in
  for _ = 1 to 20 do
    let n = 30 + Wireless.Rand.int rng 70 in
    let pts = Wireless.Deploy.uniform rng ~n ~side:200. in
    let g = Wireless.Udg.build pts ~radius:50. in
    let roles = Core.Mis.compute g in
    let greedy = Array.make n false in
    for u = 0 to n - 1 do
      if List.for_all (fun v -> v > u || not greedy.(v)) (G.neighbors g u)
      then greedy.(u) <- true
    done;
    for u = 0 to n - 1 do
      check "same set" true (greedy.(u) = (roles.(u) = Core.Mis.Dominator))
    done
  done

let test_validators () =
  let g = path 5 in
  let roles = Core.Mis.compute g in
  check "independent" true (Core.Mis.is_independent g roles);
  check "dominating" true (Core.Mis.is_dominating g roles);
  check "maximal" true (Core.Mis.is_maximal g roles);
  (* a broken assignment: adjacent dominators *)
  let bad = Array.make 5 Core.Mis.Dominator in
  check "catches dependence" false (Core.Mis.is_independent g bad);
  let none = Array.make 5 Core.Mis.Dominatee in
  check "catches non-domination" false (Core.Mis.is_dominating g none)

let test_priority_variant () =
  (* highest-degree-first on a star with large-id center: priority
     makes the center win despite its id *)
  let g = G.of_edges 5 [ (4, 0); (4, 1); (4, 2); (4, 3) ] in
  let roles =
    Core.Mis.compute g ~priority:(fun u -> -G.degree g u)
  in
  Alcotest.(check (list int)) "center wins" [ 4 ] (Core.Mis.dominators roles);
  check "independent" true (Core.Mis.is_independent g roles);
  check "dominating" true (Core.Mis.is_dominating g roles)

let test_dominators_of () =
  let g = path 5 in
  let roles = Core.Mis.compute g in
  Alcotest.(check (list int)) "node 1" [ 0; 2 ] (Core.Mis.dominators_of g roles 1);
  Alcotest.(check (list int)) "node 0 is dominator" []
    (Core.Mis.dominators_of g roles 0)

let test_two_hop_dominators () =
  let g = path 7 in
  (* dominators: 0 2 4 6 *)
  let roles = Core.Mis.compute g in
  Alcotest.(check (list int))
    "from node 1: dominators at distance exactly 2"
    []
    (List.filter (fun d -> d <> 0 && d <> 2) (Core.Mis.two_hop_dominators g roles 1));
  (* node 3 is adjacent to 2 and 4; two-hop dominators: none at
     exactly 2?  dist(3,0)=3, dist(3,6)=3 -> empty *)
  Alcotest.(check (list int)) "node 3" [] (Core.Mis.two_hop_dominators g roles 3);
  (* node 1: dist(1,2)=1 adjacent, dist(1,4)=3; no dominator at 2 *)
  Alcotest.(check (list int)) "node 1" [] (Core.Mis.two_hop_dominators g roles 1)

let test_two_hop_dominators_positive () =
  (* 0 - 1 - 2: dominators {0, 2}; node 0 sees 2 at distance 2?  0 is
     a dominator itself; check from the dominatee 1: both are
     adjacent.  Build a 2-hop case explicitly: square path 0-1-2 with
     2 a dominator two hops from 0 *)
  let g = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let roles = Core.Mis.compute g in
  (* roles: 0 dominator, 1 dominatee, 2 dominator *)
  Alcotest.(check (list int))
    "dominator 0 sees 2" [ 2 ]
    (Core.Mis.two_hop_dominators g roles 0)

let test_lemma1_five_dominators_bound () =
  (* Lemma 1: a dominatee has at most 5 dominator neighbors in a UDG *)
  let rng = Wireless.Rand.create 51L in
  for _ = 1 to 20 do
    let n = 50 + Wireless.Rand.int rng 100 in
    let pts = Wireless.Deploy.uniform rng ~n ~side:150. in
    let g = Wireless.Udg.build pts ~radius:40. in
    let roles = Core.Mis.compute g in
    for u = 0 to n - 1 do
      if roles.(u) = Core.Mis.Dominatee then
        checki "at most 5"
          (min 5 (List.length (Core.Mis.dominators_of g roles u)))
          (List.length (Core.Mis.dominators_of g roles u))
    done
  done

let suites =
  [
    ( "core.mis",
      [
        Alcotest.test_case "path" `Quick test_path_greedy;
        Alcotest.test_case "star small center" `Quick test_star;
        Alcotest.test_case "star large center" `Quick
          test_star_center_large_id;
        Alcotest.test_case "isolated nodes" `Quick
          test_isolated_nodes_are_dominators;
        Alcotest.test_case "equals sequential greedy" `Quick
          test_greedy_equivalence;
        Alcotest.test_case "validators" `Quick test_validators;
        Alcotest.test_case "priority variant" `Quick test_priority_variant;
        Alcotest.test_case "dominators_of" `Quick test_dominators_of;
        Alcotest.test_case "two-hop dominators (path)" `Quick
          test_two_hop_dominators;
        Alcotest.test_case "two-hop dominators (positive)" `Quick
          test_two_hop_dominators_positive;
        Alcotest.test_case "Lemma 1: ≤5 dominators per dominatee" `Quick
          test_lemma1_five_dominators_bound;
      ] );
  ]

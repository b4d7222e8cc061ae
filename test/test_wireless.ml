(* Wireless model: deterministic RNG, deployments, UDG, proximity
   baselines. *)

module P = Geometry.Point
module G = Netgraph.Csr
module R = Wireless.Rand

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ---------------- Rand ---------------- *)

let test_rand_deterministic () =
  let a = R.create 42L and b = R.create 42L in
  for _ = 1 to 100 do
    check "same stream" true (R.bits64 a = R.bits64 b)
  done

let test_rand_seeds_differ () =
  let a = R.create 1L and b = R.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if R.bits64 a = R.bits64 b then incr same
  done;
  checki "different streams" 0 !same

let test_rand_float_range () =
  let rng = R.create 7L in
  for _ = 1 to 1000 do
    let x = R.float rng 10. in
    check "in range" true (x >= 0. && x < 10.)
  done;
  check "bad bound" true
    (try
       ignore (R.float rng 0.);
       false
     with Invalid_argument _ -> true)

let test_rand_int_range_and_coverage () =
  let rng = R.create 8L in
  let seen = Array.make 10 false in
  for _ = 1 to 1000 do
    let x = R.int rng 10 in
    check "in range" true (x >= 0 && x < 10);
    seen.(x) <- true
  done;
  check "all values hit" true (Array.for_all Fun.id seen)

let test_rand_split_independent () =
  let parent = R.create 5L in
  let child = R.split parent in
  let c1 = R.bits64 child in
  (* reconstructing: the same parent sequence yields the same child *)
  let parent2 = R.create 5L in
  let child2 = R.split parent2 in
  check "split deterministic" true (c1 = R.bits64 child2)

let test_rand_gaussian_moments () =
  let rng = R.create 77L in
  let n = 20000 in
  let sum = ref 0. and sumsq = ref 0. in
  for _ = 1 to n do
    let x = R.gaussian rng in
    sum := !sum +. x;
    sumsq := !sumsq +. (x *. x)
  done;
  let mean = !sum /. float_of_int n in
  let var = (!sumsq /. float_of_int n) -. (mean *. mean) in
  check "mean ~ 0" true (Float.abs mean < 0.05);
  check "var ~ 1" true (Float.abs (var -. 1.) < 0.1)

let test_rand_shuffle_permutation () =
  let rng = R.create 3L in
  let arr = Array.init 50 (fun i -> i) in
  R.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "is permutation" true (sorted = Array.init 50 (fun i -> i));
  check "actually shuffled" true (arr <> Array.init 50 (fun i -> i))

(* ---------------- Deploy ---------------- *)

let test_uniform_bounds () =
  let rng = R.create 9L in
  let pts = Wireless.Deploy.uniform rng ~n:500 ~side:100. in
  checki "count" 500 (Array.length pts);
  Array.iter
    (fun (q : P.t) ->
      check "in square" true (q.x >= 0. && q.x < 100. && q.y >= 0. && q.y < 100.))
    pts

let test_perturbed_grid () =
  let rng = R.create 10L in
  let pts = Wireless.Deploy.perturbed_grid rng ~n:49 ~side:70. ~jitter:2. in
  checki "count" 49 (Array.length pts);
  (* grid spacing 10 with jitter 2: nearest neighbor at least 10-4=6 *)
  let min_d = ref infinity in
  for i = 0 to 48 do
    for j = i + 1 to 48 do
      min_d := Float.min !min_d (P.dist pts.(i) pts.(j))
    done
  done;
  check "spacing respected" true (!min_d >= 6.)

let test_clustered () =
  let rng = R.create 11L in
  let pts =
    Wireless.Deploy.clustered rng ~n:200 ~side:100. ~clusters:3 ~spread:2.
  in
  checki "count" 200 (Array.length pts);
  Array.iter
    (fun (q : P.t) ->
      check "clamped" true (q.x >= 0. && q.x <= 100. && q.y >= 0. && q.y <= 100.))
    pts;
  check "bad clusters" true
    (try
       ignore (Wireless.Deploy.clustered rng ~n:5 ~side:1. ~clusters:0 ~spread:1.);
       false
     with Invalid_argument _ -> true)

let test_connected_uniform () =
  let rng = R.create 12L in
  let pts, attempts =
    Wireless.Deploy.connected_uniform rng ~n:60 ~side:200. ~radius:60.
      ~max_attempts:1000
  in
  check "attempts positive" true (attempts >= 1);
  let g = Wireless.Udg.build pts ~radius:60. in
  check "connected" true (Netgraph.Csr.is_connected g)

let test_connected_uniform_impossible () =
  let rng = R.create 13L in
  check "gives up with the instance parameters" true
    (try
       ignore
         (Wireless.Deploy.connected_uniform rng ~n:50 ~side:1000. ~radius:1.
            ~max_attempts:3);
       false
     with
     | Wireless.Deploy.No_connected_instance
         { n = 50; side = 1000.; radius = 1.; attempts = 3 } ->
       true)

(* ---------------- UDG ---------------- *)

let test_udg_matches_definition () =
  let rng = R.create 14L in
  for _ = 1 to 10 do
    let pts = Wireless.Deploy.uniform rng ~n:80 ~side:100. in
    let g = Wireless.Udg.build pts ~radius:25. in
    check "is udg" true (Wireless.Udg.is_udg pts ~radius:25. g)
  done

let test_udg_small () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 2.5 0. |] in
  let g = Wireless.Udg.build pts ~radius:1.5 in
  check "0-1" true (G.mem_edge g 0 1);
  check "1-2" true (G.mem_edge g 1 2);
  check "0-2 too far" false (G.mem_edge g 0 2);
  check "bad radius" true
    (try
       ignore (Wireless.Udg.build pts ~radius:0.);
       false
     with Invalid_argument _ -> true)

let test_udg_boundary_inclusive () =
  let pts = [| P.make 0. 0.; P.make 1. 0. |] in
  let g = Wireless.Udg.build pts ~radius:1. in
  check "exactly at radius linked" true (G.mem_edge g 0 1)

let test_neighborhood () =
  let pts = Array.init 5 (fun i -> P.make (float_of_int i) 0.) in
  let g = Wireless.Udg.build pts ~radius:1. in
  Alcotest.(check (list int))
    "N1(2)" [ 1; 2; 3 ]
    (Wireless.Udg.neighborhood g 2 ~hops:1);
  Alcotest.(check (list int))
    "N2(0)" [ 0; 1; 2 ]
    (Wireless.Udg.neighborhood g 0 ~hops:2)

(* ---------------- Proximity ---------------- *)

let brute_rng pts udg =
  let n = Array.length pts in
  G.of_edges n
    (List.filter
       (fun (u, v) ->
         let blocked = ref false in
         for w = 0 to n - 1 do
           if w <> u && w <> v && Geometry.Circle.in_lune pts.(u) pts.(v) pts.(w)
           then blocked := true
         done;
         not !blocked)
       (G.edges udg))

let brute_gabriel pts udg =
  let n = Array.length pts in
  G.of_edges n
    (List.filter
       (fun (u, v) ->
         let blocked = ref false in
         for w = 0 to n - 1 do
           if
             w <> u && w <> v
             && Geometry.Circle.in_diametral pts.(u) pts.(v) pts.(w)
           then blocked := true
         done;
         not !blocked)
       (G.edges udg))

let random_instance seed n side radius =
  let rng = R.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side ~radius ~max_attempts:1000
  in
  let udg = Wireless.Udg.build pts ~radius in
  (pts, udg)

let test_rng_graph_matches_bruteforce () =
  let pts, udg = random_instance 20L 70 200. 60. in
  let fast = Wireless.Proximity.rng_graph udg pts in
  check "matches brute force" true (G.equal fast (brute_rng pts udg))

let test_gabriel_matches_bruteforce () =
  let pts, udg = random_instance 21L 70 200. 60. in
  let fast = Wireless.Proximity.gabriel_graph udg pts in
  check "matches brute force" true (G.equal fast (brute_gabriel pts udg))

let test_rng_subset_gabriel_subset_udg () =
  let pts, udg = random_instance 22L 80 200. 60. in
  let rng_g = Wireless.Proximity.rng_graph udg pts in
  let gg = Wireless.Proximity.gabriel_graph udg pts in
  check "RNG ⊆ GG" true (Tgraph.is_subgraph rng_g gg);
  check "GG ⊆ UDG" true (Tgraph.is_subgraph gg udg)

let test_rng_gabriel_connected () =
  (* both contain the Euclidean MST of the UDG, hence stay connected *)
  for seed = 30 to 34 do
    let pts, udg = random_instance (Int64.of_int seed) 60 200. 60. in
    let rng_g = Wireless.Proximity.rng_graph udg pts in
    let gg = Wireless.Proximity.gabriel_graph udg pts in
    check "RNG connected" true (Netgraph.Csr.is_connected rng_g);
    check "GG connected" true (Netgraph.Csr.is_connected gg)
  done

let test_gabriel_planar () =
  for seed = 40 to 44 do
    let pts, udg = random_instance (Int64.of_int seed) 60 200. 60. in
    let gg = Wireless.Proximity.gabriel_graph udg pts in
    check "GG planar" true (Netgraph.Planarity.is_planar gg pts)
  done

let test_yao_graph () =
  let pts, udg = random_instance 23L 80 200. 60. in
  let yao = Wireless.Proximity.yao_graph udg pts ~cones:6 in
  check "Yao ⊆ UDG" true (Tgraph.is_subgraph yao udg);
  check "Yao connected" true (Netgraph.Csr.is_connected yao);
  (* out-degree bound: at most [cones] choices per node, so the graph
     has at most cones * n edges *)
  check "sparse" true
    (G.edge_count yao <= 6 * G.node_count yao);
  check "bad cones" true
    (try
       ignore (Wireless.Proximity.yao_graph udg pts ~cones:0);
       false
     with Invalid_argument _ -> true)

let test_yao_small_cone_selection () =
  (* node 0 with two neighbors in the same cone keeps only the
     nearest *)
  let pts = [| P.make 0. 0.; P.make 1. 0.1; P.make 2. 0.2 |] in
  let udg = Wireless.Udg.build pts ~radius:3. in
  let yao = Wireless.Proximity.yao_graph udg pts ~cones:4 in
  check "keeps nearest" true (G.mem_edge yao 0 1);
  (* 0-2 may exist only due to 2's own cone choice toward 0; 2's
     nearest in that cone is 1, so 0-2 must be absent *)
  check "drops farther" false (G.mem_edge yao 0 2)

let test_udel () =
  let pts, udg = random_instance 24L 80 200. 60. in
  let udel = Wireless.Proximity.udel pts ~radius:60. in
  check "UDel ⊆ UDG" true (Tgraph.is_subgraph udel udg);
  check "UDel planar" true (Netgraph.Planarity.is_planar udel pts);
  check "UDel connected" true (Netgraph.Csr.is_connected udel);
  let gg = Wireless.Proximity.gabriel_graph udg pts in
  check "GG ⊆ UDel" true (Tgraph.is_subgraph gg udel)

(* ---------------- quasi UDG ---------------- *)

let test_quasi_degenerates_to_udg () =
  let rng = R.create 980L in
  let pts = Wireless.Deploy.uniform rng ~n:60 ~side:100. in
  let q = Wireless.Udg.build_quasi (R.create 1L) pts ~r_min:30. ~r_max:30. in
  check "r_min = r_max is the UDG" true
    (G.equal q (Wireless.Udg.build pts ~radius:30.))

let test_quasi_sandwich () =
  let rng = R.create 981L in
  let pts = Wireless.Deploy.uniform rng ~n:80 ~side:150. in
  let q = Wireless.Udg.build_quasi (R.create 2L) pts ~r_min:20. ~r_max:40. in
  let lower = Wireless.Udg.build pts ~radius:20. in
  let upper = Wireless.Udg.build pts ~radius:40. in
  check "UDG(r_min) ⊆ quasi" true (Tgraph.is_subgraph lower q);
  check "quasi ⊆ UDG(r_max)" true (Tgraph.is_subgraph q upper)

let test_quasi_deterministic_by_seed () =
  let rng = R.create 982L in
  let pts = Wireless.Deploy.uniform rng ~n:50 ~side:100. in
  let q1 = Wireless.Udg.build_quasi (R.create 7L) pts ~r_min:15. ~r_max:35. in
  let q2 = Wireless.Udg.build_quasi (R.create 7L) pts ~r_min:15. ~r_max:35. in
  check "same seed same graph" true (G.equal q1 q2)

let test_quasi_invalid () =
  let pts = [| P.make 0. 0.; P.make 1. 0. |] in
  check "bad range" true
    (try
       ignore (Wireless.Udg.build_quasi (R.create 1L) pts ~r_min:5. ~r_max:2.);
       false
     with Invalid_argument _ -> true)

let suites =
  [
    ( "wireless.rand",
      [
        Alcotest.test_case "deterministic" `Quick test_rand_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rand_seeds_differ;
        Alcotest.test_case "float range" `Quick test_rand_float_range;
        Alcotest.test_case "int range/coverage" `Quick
          test_rand_int_range_and_coverage;
        Alcotest.test_case "split" `Quick test_rand_split_independent;
        Alcotest.test_case "gaussian moments" `Quick test_rand_gaussian_moments;
        Alcotest.test_case "shuffle" `Quick test_rand_shuffle_permutation;
      ] );
    ( "wireless.deploy",
      [
        Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
        Alcotest.test_case "perturbed grid" `Quick test_perturbed_grid;
        Alcotest.test_case "clustered" `Quick test_clustered;
        Alcotest.test_case "connected redraw" `Quick test_connected_uniform;
        Alcotest.test_case "gives up eventually" `Quick
          test_connected_uniform_impossible;
      ] );
    ( "wireless.udg",
      [
        Alcotest.test_case "matches definition" `Quick
          test_udg_matches_definition;
        Alcotest.test_case "small cases" `Quick test_udg_small;
        Alcotest.test_case "boundary inclusive" `Quick
          test_udg_boundary_inclusive;
        Alcotest.test_case "k-hop neighborhood" `Quick test_neighborhood;
        Alcotest.test_case "quasi: degenerate" `Quick
          test_quasi_degenerates_to_udg;
        Alcotest.test_case "quasi: sandwich" `Quick test_quasi_sandwich;
        Alcotest.test_case "quasi: deterministic" `Quick
          test_quasi_deterministic_by_seed;
        Alcotest.test_case "quasi: invalid range" `Quick test_quasi_invalid;
      ] );
    ( "wireless.proximity",
      [
        Alcotest.test_case "RNG = brute force" `Quick
          test_rng_graph_matches_bruteforce;
        Alcotest.test_case "GG = brute force" `Quick
          test_gabriel_matches_bruteforce;
        Alcotest.test_case "RNG ⊆ GG ⊆ UDG" `Quick
          test_rng_subset_gabriel_subset_udg;
        Alcotest.test_case "RNG/GG connected" `Quick test_rng_gabriel_connected;
        Alcotest.test_case "GG planar" `Quick test_gabriel_planar;
        Alcotest.test_case "Yao graph" `Quick test_yao_graph;
        Alcotest.test_case "Yao cone selection" `Quick
          test_yao_small_cone_selection;
        Alcotest.test_case "UDel" `Quick test_udel;
      ] );
  ]

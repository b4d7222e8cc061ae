(* Reproductions of the paper's side claims: the MST containment chain
   behind connectivity, and Section I's argument that Yao-family
   structures are not hop spanners while the CDS family is. *)

module G = Netgraph.Csr
module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  (pts, Wireless.Udg.build pts ~radius)

(* ---------------- MST ---------------- *)

let test_mst_small () =
  (* square with one diagonal: MST drops the heaviest cycle edge *)
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 1. 1.; P.make 0. 1. |] in
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2) ] in
  let f = Netgraph.Mst.minimum_spanning_forest g pts in
  checki "n-1 edges" 3 (G.edge_count f);
  check "diagonal dropped" false (G.mem_edge f 0 2);
  check "valid forest" true (Netgraph.Mst.is_spanning_forest g f);
  Alcotest.(check (float 1e-9)) "weight" 3. (Netgraph.Mst.forest_weight f pts)

let test_mst_disconnected () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 50. 0.; P.make 51. 0. |] in
  let g = G.of_edges 4 [ (0, 1); (2, 3) ] in
  let f = Netgraph.Mst.minimum_spanning_forest g pts in
  checki "two edges" 2 (G.edge_count f);
  check "valid forest" true (Netgraph.Mst.is_spanning_forest g f)

let test_mst_weight_optimal_vs_random_tree () =
  (* the MST never weighs more than any spanning structure *)
  let pts, udg = random_instance 800L 60 50. in
  let f = Netgraph.Mst.minimum_spanning_forest udg pts in
  check "valid" true (Netgraph.Mst.is_spanning_forest udg f);
  let bfs_tree =
    (* a BFS tree is a spanning tree; its weight bounds the MST *)
    let parent = Array.make (Array.length pts) (-1) in
    let seen = Array.make (Array.length pts) false in
    let q = Queue.create () in
    seen.(0) <- true;
    Queue.add 0 q;
    let tree = ref [] in
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if not seen.(v) then begin
            seen.(v) <- true;
            parent.(v) <- u;
            tree := (u, v) :: !tree;
            Queue.add v q
          end)
        (G.neighbors udg u)
    done;
    G.of_edges (Array.length pts) !tree
  in
  check "mst lighter" true
    (Netgraph.Mst.forest_weight f pts
    <= Netgraph.Mst.forest_weight bfs_tree pts +. 1e-9)

let test_mst_containment_chain () =
  (* MST ⊆ RNG ⊆ GG: the paper's connectivity argument for the flat
     structures *)
  for seed = 810 to 814 do
    let pts, udg = random_instance (Int64.of_int seed) 70 50. in
    let mst = Netgraph.Mst.minimum_spanning_forest udg pts in
    let rng_g = Wireless.Proximity.rng_graph udg pts in
    let gg = Wireless.Proximity.gabriel_graph udg pts in
    check "MST ⊆ RNG" true (Tgraph.is_subgraph mst rng_g);
    check "RNG ⊆ GG" true (Tgraph.is_subgraph rng_g gg)
  done

let test_mst_in_ldel () =
  (* consequently LDel and the primed backbone structures stay
     connected: GG ⊆ LDel1 and GG ⊆ PLDel were tested elsewhere;
     close the chain from the MST side *)
  let pts, udg = random_instance 820L 70 50. in
  let mst = Netgraph.Mst.minimum_spanning_forest udg pts in
  let planar = Core.Ldel.planar udg (Core.Ldel.build udg pts ~radius:50.) in
  check "MST ⊆ PLDel" true (Tgraph.is_subgraph mst planar)

(* ---------------- Yao is not a hop spanner ---------------- *)

let test_yao_not_hop_spanner_on_line () =
  (* Section I: "n nodes evenly distributed on a unit segment" — the
     Yao structure keeps only each node's nearest neighbor per cone,
     so the two ends are Θ(n) hops apart even though the UDG connects
     them in one hop.  The backbone family keeps the hop stretch
     constant on the same input. *)
  let n = 40 in
  (* nodes at 0, d, 2d, ... (n-1)d with (n-1)d < radius: a clique.
     Exactly collinear, as in the paper's construction — every cone
     sees only the immediate left/right neighbor as nearest, so Yao
     degenerates to the path. *)
  let radius = 50. in
  let d = radius /. float_of_int n in
  let pts = Array.init n (fun i -> P.make (float_of_int i *. d) 0.) in
  let udg = Wireless.Udg.build pts ~radius in
  checki "udg is a clique" (n * (n - 1) / 2) (G.edge_count udg);
  let yao = Wireless.Proximity.yao_graph udg pts ~cones:6 in
  let hops_yao = (Netgraph.Csr.bfs yao 0).(n - 1) in
  (* ends adjacent in UDG but Θ(n) apart in Yao *)
  checki "yao collapses to the path" (n - 1) hops_yao;
  (* the paper's structure: one dominator covers the whole clique, so
     hierarchical routing reaches anything in O(1) hops *)
  let bb = Core.Backbone.build pts ~radius in
  (match Core.Routing.hierarchical bb.Core.Backbone.snap ~src:0 ~dst:(n - 1) with
  | Some p -> check "backbone O(1) hops" true (List.length p <= 4)
  | None -> Alcotest.fail "backbone must route");
  let s =
    Netgraph.Metrics.stretch_factors ~base:udg
      ~sub:bb.Core.Backbone.snap.Core.Shard.pldel'
      pts
  in
  check "hop stretch constant" true (s.Netgraph.Metrics.hop_max <= 3.5)

let test_yao_is_length_spanner_anyway () =
  (* the same Yao graph has bounded LENGTH stretch — the contrast the
     paper draws (length spanner, not hop spanner) *)
  let pts, udg = random_instance 831L 70 50. in
  let yao = Wireless.Proximity.yao_graph udg pts ~cones:8 in
  let s =
    Netgraph.Metrics.stretch_factors ~one_hop_direct:false ~base:udg ~sub:yao
      pts
  in
  (* theory: 1 / (1 - 2 sin(pi/8)) ≈ 4.26 for 8 cones *)
  check "length stretch bounded" true (s.Netgraph.Metrics.len_max < 4.3)

let test_gabriel_power_stretch_one () =
  (* the classic result the paper cites from [12] (Li, Wan, Wang,
     Frieder): the Gabriel graph preserves every minimum-energy path
     exactly — power stretch factor 1 for beta >= 2 *)
  for seed = 860 to 863 do
    let pts, udg = random_instance (Int64.of_int seed) 60 50. in
    let gg = Wireless.Proximity.gabriel_graph udg pts in
    List.iter
      (fun beta ->
        let avg, mx =
          Netgraph.Metrics.power_stretch ~one_hop_direct:false ~base:udg
            ~sub:gg pts ~beta
        in
        check "avg = 1" true (Float.abs (avg -. 1.) < 1e-9);
        check "max = 1" true (Float.abs (mx -. 1.) < 1e-9))
      [ 2.; 3.; 4. ]
  done

(* ---------------- theoretical constants ---------------- *)

let test_bounds_values () =
  checki "C_1 = 9" 9 (Core.Bounds.dominators_within 1.);
  checki "C_2 = 25" 25 (Core.Bounds.dominators_within 2.);
  checki "C_3 = 49" 49 (Core.Bounds.dominators_within 3.);
  checki "ICDS degree = 5*25 + 49" 174 Core.Bounds.icds_degree;
  check "keil-gutwin ~ 2.42" true
    (Float.abs (Core.Bounds.delaunay_stretch -. 2.4184) < 1e-3)

(* L1 and L8 on the snapshot the pipeline builds, one tile and a 3x3
   tiling *)
let test_bounds_hold_empirically () =
  for seed = 880 to 883 do
    let pts, _ = random_instance (Int64.of_int seed) 90 50. in
    List.iter
      (fun tiles ->
        let s = Core.Shard.pipeline ~tiles pts ~radius:50. in
        let udg = s.Core.Shard.udg and roles = s.Core.Shard.roles in
        Array.iteri
          (fun u r ->
            if r = Core.Mis.Dominatee then
              check "L1 respected" true
                (Netgraph.Csr.fold_neighbors udg u
                   (fun c v ->
                     if roles.(v) = Core.Mis.Dominator then c + 1 else c)
                   0
                <= Core.Bounds.max_dominators_per_dominatee))
          roles;
        let d =
          Netgraph.Metrics.degree_stats
            s.Core.Shard.icds
        in
        check "L8 respected" true
          (d.Netgraph.Metrics.deg_max <= Core.Bounds.icds_degree))
      [ 1; 3 ]
  done

let suites =
  [
    ( "netgraph.mst",
      [
        Alcotest.test_case "small square" `Quick test_mst_small;
        Alcotest.test_case "forest on disconnected" `Quick
          test_mst_disconnected;
        Alcotest.test_case "weight optimality" `Quick
          test_mst_weight_optimal_vs_random_tree;
        Alcotest.test_case "MST ⊆ RNG ⊆ GG" `Quick test_mst_containment_chain;
        Alcotest.test_case "MST ⊆ PLDel" `Quick test_mst_in_ldel;
      ] );
    ( "claims.yao",
      [
        Alcotest.test_case "Yao is not a hop spanner (line)" `Quick
          test_yao_not_hop_spanner_on_line;
        Alcotest.test_case "Yao is a length spanner" `Quick
          test_yao_is_length_spanner_anyway;
      ] );
    ( "claims.bounds",
      [
        Alcotest.test_case "constants" `Quick test_bounds_values;
        Alcotest.test_case "bounds hold empirically" `Quick
          test_bounds_hold_empirically;
      ] );
    ( "claims.power",
      [
        Alcotest.test_case "Gabriel power stretch is exactly 1" `Quick
          test_gabriel_power_stretch_one;
      ] );
  ]

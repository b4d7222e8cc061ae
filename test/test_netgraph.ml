(* Unit tests for the graph substrate: structure, traversal,
   components, metrics, planarity. *)

module G = Netgraph.Csr
module T = Netgraph.Traversal
module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------------- Graph ---------------- *)

let test_graph_basic () =
  checki "nodes" 4 (G.node_count (G.of_edges 4 []));
  checki "no edges" 0 (G.edge_count (G.of_edges 4 []));
  (* a repeated edge counts once *)
  let g = G.of_edges 4 [ (0, 1); (1, 2); (0, 1) ] in
  checki "edges" 2 (G.edge_count g);
  check "has 0-1" true (G.mem_edge g 0 1);
  check "symmetric" true (G.mem_edge g 1 0);
  check "no 0-2" false (G.mem_edge g 0 2);
  Alcotest.(check (list int)) "neighbors sorted" [ 0; 2 ] (G.neighbors g 1);
  checki "degree" 2 (G.degree g 1)

let test_graph_invalid () =
  check "self loop" true
    (try
       ignore (G.of_edges 3 [ (0, 1); (1, 1) ]);
       false
     with Invalid_argument _ -> true);
  check "out of range" true
    (try
       ignore (G.of_edges 3 [ (0, 3) ]);
       false
     with Invalid_argument _ -> true)

let test_graph_edges_iter () =
  let g = G.of_edges 4 [ (2, 1); (0, 3); (0, 1) ] in
  Alcotest.(check (list (pair int int)))
    "edges normalized and sorted"
    [ (0, 1); (0, 3); (1, 2) ]
    (G.edges g);
  let sum = G.fold_edges g (fun acc u v -> acc + u + v) 0 in
  checki "fold visits each edge once" 7 sum

(* the induced subgraph is the row filter to edges with both ends
   kept; the node set (and ids) are unchanged *)
let test_graph_subgraph_induced () =
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let h = G.filter g (fun u v -> u <> 2 && v <> 2) in
  checki "induced drops edges at 2" 1 (G.edge_count h);
  checki "same nodes" 4 (G.node_count h);
  check "subgraph" true (G.fold_edges h (fun ok u v -> ok && G.mem_edge g u v) true);
  check "equal self" true (G.equal g (G.of_edges 4 (G.edges g)));
  check "not equal" false (G.equal g h)

(* ---------------- Csr.of_edges against a Set model ---------------- *)

(* A persistent edge set is the reference: the graph sealed from an
   edge list must read the same as the set of its normalized pairs,
   through every query and iteration. *)
module Es = Set.Make (struct
  type t = int * int

  let compare = Netgraph.Graph.compare_edge
end)

let norm (u, v) = if u < v then (u, v) else (v, u)
let valid n (u, v) = u >= 0 && u < n && v >= 0 && v < n && u <> v

let model_neighbors m u =
  List.sort Int.compare
    (Es.fold
       (fun (a, b) acc ->
         if a = u then b :: acc else if b = u then a :: acc else acc)
       m [])

let collect iter =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc);
  List.rev !acc

let agrees n g m =
  G.node_count g = n
  && G.edge_count g = Es.cardinal m
  && G.edges g = Es.elements m
  && collect (fun f -> G.iter_edges g (fun u v -> f (u, v))) = Es.elements m
  && List.rev (G.fold_edges g (fun acc u v -> (u, v) :: acc) []) = Es.elements m
  && List.for_all
       (fun u ->
         let want = model_neighbors m u in
         G.neighbors g u = want
         && G.degree g u = List.length want
         && collect (G.iter_neighbors g u) = want
         && List.rev (G.fold_neighbors g u (fun acc v -> v :: acc) []) = want
         && List.for_all
              (fun v -> G.mem_edge g u v = Es.mem (norm (u, v)) m)
              (List.init (n + 2) (fun i -> i - 1)))
       (List.init n Fun.id)

(* [of_edges n es] raises exactly when some pair is a self-loop or
   out of range, and otherwise reads as the model *)
let seals_as_model n es =
  let ok = List.for_all (valid n) es in
  match G.of_edges n es with
  | g -> ok && agrees n g (Es.of_list (List.map norm es))
  | exception Invalid_argument _ -> not ok

let insert_at i x l =
  List.filteri (fun j _ -> j < i) l @ (x :: List.filteri (fun j _ -> j >= i) l)

(* valid pairs, some repeated as given and some reversed, and now and
   then one more pair at a random place that may be bad *)
let gen_edges n =
  let open QCheck.Gen in
  let id = int_range 0 (max 0 (n - 1)) in
  list_size (int_range 0 30) (pair id id) >>= fun raw ->
  let es = List.filter (valid n) raw in
  list_size (int_range 0 10) (pair nat bool) >>= fun picks ->
  let copies =
    if es = [] then []
    else
      List.map
        (fun (i, flip) ->
          let u, v = List.nth es (i mod List.length es) in
          if flip then (v, u) else (u, v))
        picks
  in
  let es = es @ copies in
  let odd =
    oneof [ pair (int_range (-1) n) (int_range (-1) n); map (fun u -> (u, u)) id ]
  in
  frequency
    [
      (3, return es);
      ( 1,
        odd >>= fun e ->
        int_range 0 (List.length es) >|= fun i -> insert_at i e es );
    ]

let gen_model_case =
  let open QCheck.Gen in
  int_range 0 12 >>= fun n ->
  map2 (fun a b -> (n, a, b)) (gen_edges n) (gen_edges n)

let prop_of_edges_matches_model =
  QCheck.Test.make ~name:"Csr.of_edges = Set model" ~count:300
    (QCheck.make
       ~print:(fun (n, a, b) ->
         let show es =
           String.concat " "
             (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) es)
         in
         Printf.sprintf "n=%d\n[%s]\n[%s]" n (show a) (show b))
       gen_model_case)
    (fun (n, a, b) ->
      seals_as_model n a && seals_as_model n b
      && ((not (List.for_all (valid n) a && List.for_all (valid n) b))
         ||
         let g = G.of_edges n a and h = G.of_edges n b in
         let m = Es.of_list (List.map norm a)
         and mh = Es.of_list (List.map norm b) in
         let pts =
           Array.init n (fun i ->
               P.make (float_of_int i) (float_of_int (i * i mod 7)))
         in
         G.equal g h = Es.equal m mh
         && G.equal g (G.of_edges n (List.rev (Es.elements m)))
         (* weights are not compared *)
         && G.equal g (G.with_weights ~beta:2. g pts)
         && G.equal (G.with_weights g pts) h = Es.equal m mh))

(* ---------------- Traversal ---------------- *)

let path_graph n =
  G.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_bfs_path_graph () =
  let g = path_graph 5 in
  let d = G.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d;
  match T.bfs_path g 0 4 with
  | Some p -> Alcotest.(check (list int)) "path" [ 0; 1; 2; 3; 4 ] p
  | None -> Alcotest.fail "expected path"

let test_bfs_unreachable () =
  let g = G.of_edges 4 [ (0, 1); (2, 3) ] in
  let d = G.bfs g 0 in
  checki "unreachable max_int" max_int d.(2);
  check "no path" true (T.bfs_path g 0 3 = None)

let test_bfs_shortcut () =
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  checki "direct" 1 (G.bfs g 0).(3)

let test_dijkstra_vs_bfs_unit_lengths () =
  (* with all points colinear at unit spacing, Dijkstra distance =
     BFS hops *)
  let n = 6 in
  let g = path_graph n in
  let pts = Array.init n (fun i -> P.make (float_of_int i) 0.) in
  let dd = G.dijkstra (G.with_weights g pts) 0 and bd = G.bfs g 0 in
  for i = 0 to n - 1 do
    checkf "consistent" (float_of_int bd.(i)) dd.(i)
  done

let test_dijkstra_prefers_short_detour () =
  (* 0 -- 2 direct is long; 0 - 1 - 2 detour is shorter *)
  let pts = [| P.make 0. 0.; P.make 1. 5.; P.make 2. 0. |] in
  let g = G.of_edges 3 [ (0, 2); (0, 1); (1, 2) ] in
  let d = G.dijkstra (G.with_weights g pts) 0 in
  checkf "direct shorter here" 2. d.(2);
  match T.dijkstra_path g pts 0 2 with
  | Some p -> Alcotest.(check (list int)) "direct path" [ 0; 2 ] p
  | None -> Alcotest.fail "expected path"

let test_dijkstra_detour_wins () =
  let pts = [| P.make 0. 0.; P.make 5. 0.1; P.make 10. 0. |] in
  let g = G.of_edges 3 [ (0, 2); (0, 1); (1, 2) ] in
  (* direct |02| = 10; detour via 1 ~ 10.002: direct wins.  Now move
     1 onto the line: detour exactly 10.0 either way; make direct
     artificially long by placing 2 further *)
  let d = G.dijkstra (G.with_weights g pts) 0 in
  check "direct wins" true (d.(2) = 10.)

let test_path_helpers () =
  let pts = [| P.make 0. 0.; P.make 3. 4.; P.make 3. 8. |] in
  checkf "length" 9. (T.path_length pts [ 0; 1; 2 ]);
  checki "hops" 2 (T.path_hops [ 0; 1; 2 ]);
  checki "hops singleton" 0 (T.path_hops [ 0 ]);
  let g = G.of_edges 3 [ (0, 1); (1, 2) ] in
  check "is path" true (T.is_path g [ 0; 1; 2 ]);
  check "not path" false (T.is_path g [ 0; 2 ]);
  check "empty not path" false (T.is_path g [])

let test_diameter () =
  checki "path diameter" 4 (T.diameter (path_graph 5));
  let star = G.of_edges 5 [ (0, 1); (0, 2); (0, 3); (0, 4) ] in
  checki "star diameter" 2 (T.diameter star);
  checki "star ecc center" 1 (T.eccentricity star 0);
  checki "star ecc leaf" 2 (T.eccentricity star 1)

(* ---------------- Components ---------------- *)

let test_components () =
  let g = G.of_edges 6 [ (0, 1); (1, 2); (3, 4) ] in
  checki "three components" 3 (Netgraph.Components.count g);
  check "not connected" false (G.is_connected g);
  check "connected subset" true
    (Netgraph.Components.connected_within g [ 0; 1; 2 ]);
  check "disconnected subset" false
    (Netgraph.Components.connected_within g [ 0; 3 ]);
  (* subset connectivity must use only member-to-member edges *)
  let h = G.of_edges 3 [ (0, 1); (1, 2) ] in
  check "members only" false (Netgraph.Components.connected_within h [ 0; 2 ]);
  Alcotest.(check (list int))
    "reachable" [ 0; 1; 2 ]
    (Netgraph.Components.reachable g 0);
  check "empty connected" true (G.is_connected (G.of_edges 0 []));
  check "singleton connected" true (G.is_connected (G.of_edges 1 []))

(* ---------------- Metrics ---------------- *)

let test_degree_stats () =
  let g = G.of_edges 4 [ (0, 1); (0, 2); (0, 3) ] in
  let d = Netgraph.Metrics.degree_stats g in
  checkf "avg" 1.5 d.Netgraph.Metrics.deg_avg;
  checki "max" 3 d.Netgraph.Metrics.deg_max;
  checki "edges" 3 d.Netgraph.Metrics.edges

let test_stretch_identity () =
  let pts = Array.init 5 (fun i -> P.make (float_of_int i) 0.) in
  let g = path_graph 5 in
  let s = Netgraph.Metrics.stretch_factors ~base:g ~sub:g pts in
  checkf "len avg" 1. s.Netgraph.Metrics.len_avg;
  checkf "hop max" 1. s.Netgraph.Metrics.hop_max

let test_stretch_detour () =
  (* base: triangle 0-1-2 with direct edge 0-2; sub removes 0-2.
     points: 0 (0,0), 1 (1,1), 2 (2,0); |02| = 2, detour = 2*sqrt 2 *)
  let pts = [| P.make 0. 0.; P.make 1. 1.; P.make 2. 0. |] in
  let base = G.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let sub = G.of_edges 3 [ (0, 1); (1, 2) ] in
  let s =
    Netgraph.Metrics.stretch_factors ~one_hop_direct:false ~base ~sub pts
  in
  checkf "len max = sqrt 2" (sqrt 2.) s.Netgraph.Metrics.len_max;
  checkf "hop max = 2" 2. s.Netgraph.Metrics.hop_max;
  (* with the paper's direct-transmission rule all three pairs are
     adjacent in base, so stretch is 1 *)
  let s' = Netgraph.Metrics.stretch_factors ~base ~sub pts in
  checkf "direct rule" 1. s'.Netgraph.Metrics.len_max

let test_stretch_disconnected_sub_raises () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 2. 0. |] in
  let base = G.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let sub = G.of_edges 3 [ (0, 1) ] in
  check "raises" true
    (try
       ignore
         (Netgraph.Metrics.stretch_factors ~one_hop_direct:false ~base ~sub
            pts);
       false
     with Invalid_argument _ -> true)

let test_pair_stretch () =
  let pts = [| P.make 0. 0.; P.make 1. 1.; P.make 2. 0. |] in
  let base = G.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let sub = G.of_edges 3 [ (0, 1); (1, 2) ] in
  (match Netgraph.Metrics.pair_stretch ~base ~sub pts 0 2 with
  | Some (len, hops) ->
    checkf "len" (sqrt 2.) len;
    checkf "hops" 2. hops
  | None -> Alcotest.fail "expected stretch");
  let disconnected = G.of_edges 3 [] in
  check "disconnected none" true
    (Netgraph.Metrics.pair_stretch ~base ~sub:disconnected pts 0 2 = None)

let test_total_edge_length () =
  let pts = [| P.make 0. 0.; P.make 3. 4.; P.make 6. 8. |] in
  let g = G.of_edges 3 [ (0, 1); (1, 2) ] in
  checkf "total" 10. (Netgraph.Metrics.total_edge_length g pts)

let test_power_stretch () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 2. 0. |] in
  let base = G.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  let sub = G.of_edges 3 [ (0, 1); (1, 2) ] in
  (* power beta=2: direct 0-2 costs 4, detour costs 1+1=2 < 4, so the
     subgraph is BETTER than the direct link *)
  let avg, mx =
    Netgraph.Metrics.power_stretch ~one_hop_direct:false ~base ~sub pts
      ~beta:2.
  in
  checkf "max ratio" 1. mx;
  check "avg le 1" true (avg <= 1.)

(* ---------------- Planarity ---------------- *)

let test_planarity () =
  let pts = [| P.make 0. 0.; P.make 2. 2.; P.make 0. 2.; P.make 2. 0. |] in
  let crossing = G.of_edges 4 [ (0, 1); (2, 3) ] in
  check "crossing detected" false (Netgraph.Planarity.is_planar crossing pts);
  checki "one crossing" 1 (Netgraph.Planarity.crossing_count crossing pts);
  let planar = G.of_edges 4 [ (0, 2); (2, 1); (1, 3); (3, 0) ] in
  check "cycle planar" true (Netgraph.Planarity.is_planar planar pts);
  (* edges sharing an endpoint never count as crossing *)
  let fan = G.of_edges 4 [ (0, 1); (0, 2); (0, 3) ] in
  check "fan planar" true (Netgraph.Planarity.is_planar fan pts)

let test_euler_bound () =
  check "sparse ok" true (Netgraph.Planarity.euler_bound_ok (path_graph 5));
  (* K5: 10 edges > 3*5-6 = 9 *)
  let k5 =
    G.of_edges 5
      (List.concat_map
         (fun u -> List.init (4 - u) (fun i -> (u, u + 1 + i)))
         [ 0; 1; 2; 3; 4 ])
  in
  check "K5 fails" false (Netgraph.Planarity.euler_bound_ok k5)

let suites =
  [
    ( "netgraph.graph",
      [
        Alcotest.test_case "basic" `Quick test_graph_basic;
        Alcotest.test_case "invalid" `Quick test_graph_invalid;
        Alcotest.test_case "edges/iter" `Quick test_graph_edges_iter;
        Alcotest.test_case "subgraph/induced" `Quick
          test_graph_subgraph_induced;
        QCheck_alcotest.to_alcotest prop_of_edges_matches_model;
      ] );
    ( "netgraph.traversal",
      [
        Alcotest.test_case "bfs path graph" `Quick test_bfs_path_graph;
        Alcotest.test_case "bfs unreachable" `Quick test_bfs_unreachable;
        Alcotest.test_case "bfs shortcut" `Quick test_bfs_shortcut;
        Alcotest.test_case "dijkstra = bfs on unit lengths" `Quick
          test_dijkstra_vs_bfs_unit_lengths;
        Alcotest.test_case "dijkstra shortest" `Quick
          test_dijkstra_prefers_short_detour;
        Alcotest.test_case "dijkstra direct" `Quick test_dijkstra_detour_wins;
        Alcotest.test_case "path helpers" `Quick test_path_helpers;
        Alcotest.test_case "diameter/eccentricity" `Quick test_diameter;
      ] );
    ( "netgraph.components",
      [ Alcotest.test_case "components" `Quick test_components ] );
    ( "netgraph.metrics",
      [
        Alcotest.test_case "degree stats" `Quick test_degree_stats;
        Alcotest.test_case "stretch identity" `Quick test_stretch_identity;
        Alcotest.test_case "stretch detour" `Quick test_stretch_detour;
        Alcotest.test_case "stretch broken subgraph" `Quick
          test_stretch_disconnected_sub_raises;
        Alcotest.test_case "pair stretch" `Quick test_pair_stretch;
        Alcotest.test_case "total edge length" `Quick test_total_edge_length;
        Alcotest.test_case "power stretch" `Quick test_power_stretch;
      ] );
    ( "netgraph.planarity",
      [
        Alcotest.test_case "crossing detection" `Quick test_planarity;
        Alcotest.test_case "euler bound" `Quick test_euler_bound;
      ] );
  ]

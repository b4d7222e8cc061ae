(* Unit tests for the graph substrate: structure, traversal,
   components, metrics, planarity. *)

module G = Netgraph.Graph
module T = Netgraph.Traversal
module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ---------------- Graph ---------------- *)

let test_graph_basic () =
  let g = G.create 4 in
  checki "nodes" 4 (G.node_count g);
  checki "no edges" 0 (G.edge_count g);
  G.add_edge g 0 1;
  G.add_edge g 1 2;
  G.add_edge g 0 1;
  (* duplicate is a no-op *)
  checki "edges" 2 (G.edge_count g);
  check "has 0-1" true (G.has_edge g 0 1);
  check "symmetric" true (G.has_edge g 1 0);
  check "no 0-2" false (G.has_edge g 0 2);
  Alcotest.(check (list int)) "neighbors sorted" [ 0; 2 ] (G.neighbors g 1);
  checki "degree" 2 (G.degree g 1)

let test_graph_remove () =
  let g = G.of_edges 3 [ (0, 1); (1, 2) ] in
  G.remove_edge g 0 1;
  checki "one left" 1 (G.edge_count g);
  check "gone" false (G.has_edge g 0 1);
  G.remove_edge g 0 1;
  (* removing twice is a no-op *)
  checki "still one" 1 (G.edge_count g)

let test_graph_invalid () =
  let g = G.create 3 in
  check "self loop" true
    (try
       G.add_edge g 1 1;
       false
     with Invalid_argument _ -> true);
  check "out of range" true
    (try
       G.add_edge g 0 3;
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

let test_graph_copy_union () =
  let g1 = G.of_edges 3 [ (0, 1) ] in
  let g2 = G.copy g1 in
  G.add_edge g2 1 2;
  checki "copy independent" 1 (G.edge_count g1);
  let u = G.union g1 (G.of_edges 3 [ (1, 2) ]) in
  checki "union" 2 (G.edge_count u);
  check "union mismatch" true
    (try
       ignore (G.union g1 (G.create 4));
       false
     with Invalid_argument _ -> true)

let test_graph_subgraph_induced () =
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let h = G.induced g (fun u -> u <> 2) in
  checki "induced drops edges at 2" 1 (G.edge_count h);
  check "subgraph" true (G.is_subgraph h g);
  check "not subgraph" false (G.is_subgraph g h);
  check "equal self" true (G.equal g (G.copy g));
  check "not equal" false (G.equal g h)

(* ---------------- Graph against a Set model ---------------- *)

(* A persistent edge set is the reference: every operation is run on
   both, and after each one every query must read the same from the
   graph as from the set. *)
module Es = Set.Make (struct
  type t = int * int

  let compare = G.compare_edge
end)

type op = Add of int * int | Remove of int * int

let norm u v = if u < v then (u, v) else (v, u)
let valid n u v = u >= 0 && u < n && v >= 0 && v < n && u <> v

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
  let ids = List.init (n + 2) (fun i -> i - 1) in
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
         && List.rev (G.fold_neighbors g u (fun acc v -> v :: acc) []) = want)
       (List.init n Fun.id)
  && List.for_all
       (fun u ->
         List.for_all
           (fun v -> G.has_edge g u v = (valid n u v && Es.mem (norm u v) m))
           ids)
       ids

(* [op] on [g] and on [m]; [None] when the graph and the model
   disagree on whether it raises, or on any query after it *)
let step n g m op =
  let u, v, run, model =
    match op with
    | Add (u, v) -> (u, v, G.add_edge, Es.add)
    | Remove (u, v) -> (u, v, G.remove_edge, Es.remove)
  in
  let m' =
    match run g u v with
    | () -> if valid n u v then Some (model (norm u v) m) else None
    | exception Invalid_argument _ -> if valid n u v then None else Some m
  in
  match m' with Some m' when agrees n g m' -> Some m' | _ -> None

let play n ops =
  let g = G.create n in
  ( g,
    List.fold_left
      (fun m op -> Option.bind m (fun m -> step n g m op))
      (Some Es.empty) ops )

(* flip every pair: removals shift rows in place, additions grow
   them, so a row shared with another graph would show *)
let complement g =
  let n = G.node_count g in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if G.has_edge g u v then G.remove_edge g u v else G.add_edge g u v
    done
  done

let gen_model_case =
  let open QCheck.Gen in
  int_range 0 12 >>= fun n ->
  let id = int_range (-1) n in
  let op =
    map3
      (fun add u v -> if add then Add (u, v) else Remove (u, v))
      (frequency [ (3, return true); (2, return false) ])
      id id
  in
  let ops = list_size (int_range 0 60) op in
  map3 (fun a b keep -> (n, a, b, keep)) ops ops (array_size (return n) bool)

let prop_graph_matches_model =
  QCheck.Test.make ~name:"Graph matches a Set model" ~count:300
    (QCheck.make
       ~print:(fun (n, a, b, _) ->
         Printf.sprintf "n=%d, %d + %d ops" n (List.length a) (List.length b))
       gen_model_case)
    (fun (n, ops_g, ops_h, keep) ->
      match (play n ops_g, play n ops_h) with
      | (g, Some m), (h, Some mh) ->
        G.equal g h = Es.equal m mh
        && G.equal g (G.of_edges n (List.rev (Es.elements m)))
        && G.is_subgraph g h = Es.subset m mh
        && agrees n
             (G.induced g (fun u -> keep.(u)))
             (Es.filter (fun (u, v) -> keep.(u) && keep.(v)) m)
        && (let c = G.copy g in
            agrees n c m
            &&
            (complement c;
             agrees n g m))
        && (let un = G.union g h in
            agrees n un (Es.union m mh)
            &&
            (complement un;
             agrees n g m && agrees n h mh))
        &&
        let c = Netgraph.Csr.of_graph g in
        let offsets = Array.copy (Netgraph.Csr.offsets c)
        and targets = Array.copy (Netgraph.Csr.targets c) in
        let t = Netgraph.Csr.to_graph c in
        let back = Netgraph.Csr.of_graph t in
        agrees n t m
        && Netgraph.Csr.offsets back = offsets
        && Netgraph.Csr.targets back = targets
        &&
        (complement t;
         Netgraph.Csr.offsets c = offsets
         && Netgraph.Csr.targets c = targets
         && Netgraph.Csr.edges c = Es.elements m)
      | _ -> false)

(* ---------------- Traversal ---------------- *)

let path_graph n =
  G.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let test_bfs_path_graph () =
  let g = path_graph 5 in
  let d = T.bfs g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d;
  match T.bfs_path g 0 4 with
  | Some p -> Alcotest.(check (list int)) "path" [ 0; 1; 2; 3; 4 ] p
  | None -> Alcotest.fail "expected path"

let test_bfs_unreachable () =
  let g = G.of_edges 4 [ (0, 1); (2, 3) ] in
  let d = T.bfs g 0 in
  checki "unreachable max_int" max_int d.(2);
  check "no path" true (T.bfs_path g 0 3 = None)

let test_bfs_shortcut () =
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  checki "direct" 1 (T.bfs g 0).(3)

let test_dijkstra_vs_bfs_unit_lengths () =
  (* with all points colinear at unit spacing, Dijkstra distance =
     BFS hops *)
  let n = 6 in
  let g = path_graph n in
  let pts = Array.init n (fun i -> P.make (float_of_int i) 0.) in
  let dd = T.dijkstra g pts 0 and bd = T.bfs g 0 in
  for i = 0 to n - 1 do
    checkf "consistent" (float_of_int bd.(i)) dd.(i)
  done

let test_dijkstra_prefers_short_detour () =
  (* 0 -- 2 direct is long; 0 - 1 - 2 detour is shorter *)
  let pts = [| P.make 0. 0.; P.make 1. 5.; P.make 2. 0. |] in
  let g = G.of_edges 3 [ (0, 2); (0, 1); (1, 2) ] in
  let d = T.dijkstra g pts 0 in
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
  let d = T.dijkstra g pts 0 in
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
  check "not connected" false (Netgraph.Components.is_connected g);
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
  check "empty connected" true (Netgraph.Components.is_connected (G.create 0));
  check "singleton connected" true
    (Netgraph.Components.is_connected (G.create 1))

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
  let disconnected = G.create 3 in
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
  let k5 = G.create 5 in
  for u = 0 to 4 do
    for v = u + 1 to 4 do
      G.add_edge k5 u v
    done
  done;
  check "K5 fails" false (Netgraph.Planarity.euler_bound_ok k5)

let suites =
  [
    ( "netgraph.graph",
      [
        Alcotest.test_case "basic" `Quick test_graph_basic;
        Alcotest.test_case "remove" `Quick test_graph_remove;
        Alcotest.test_case "invalid" `Quick test_graph_invalid;
        Alcotest.test_case "edges/iter" `Quick test_graph_edges_iter;
        Alcotest.test_case "copy/union" `Quick test_graph_copy_union;
        Alcotest.test_case "subgraph/induced" `Quick
          test_graph_subgraph_induced;
        QCheck_alcotest.to_alcotest prop_graph_matches_model;
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

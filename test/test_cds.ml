(* Connectors (Algorithm 1) and the CDS structure family, read off the
   snapshot the pipeline builds. *)

module P = Geometry.Point
module Csr = Netgraph.Csr

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let path n = Csr.of_edges n (List.init (n - 1) (fun i -> (i, i + 1)))

let random_instance seed n side radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side ~radius ~max_attempts:2000
  in
  (pts, Wireless.Udg.build pts ~radius)

let snapshot seed n side radius =
  let pts, _ = random_instance seed n side radius in
  Core.Shard.pipeline pts ~radius

let backbone_nodes backbone =
  List.filter (fun u -> backbone.(u)) (List.init (Array.length backbone) Fun.id)

(* every edge of [a] is an edge of [b] *)
let subgraph a b =
  Csr.fold_edges a (fun ok u v -> ok && Csr.mem_edge b u v) true

let cds' (s : Core.Shard.snapshot) =
  Core.Shard.primed s.Core.Shard.roles s.Core.Shard.icds' s.Core.Shard.cds

(* ---------------- elect ---------------- *)

let test_elect_local_minima () =
  (* candidates 1, 2, 3 on a path: 1 and 3 don't hear each other only
     if not adjacent.  On path 1-2-3 (within graph 0..4), 1 beats 2;
     3 hears 2 (loses to nobody smaller adjacent) — 3's neighbors
     among candidates: {2}; 3 > 2 so 3 loses?  No: rule is "w wins
     iff w smaller than every candidate it hears".  3 hears 2 and
     2 < 3, so 3 loses; 1 hears 2, 1 < 2, 1 wins; 2 hears 1 and 3,
     1 < 2, so 2 loses. *)
  let g = path 5 in
  Alcotest.(check (list int)) "winners" [ 1 ] (Core.Connectors.elect g [ 1; 2; 3 ]);
  (* non-adjacent candidates all win *)
  Alcotest.(check (list int)) "independent all win" [ 0; 2; 4 ]
    (Core.Connectors.elect g [ 0; 2; 4 ]);
  Alcotest.(check (list int)) "empty" [] (Core.Connectors.elect g [])

let test_elect_winners_never_adjacent () =
  let rng = Wireless.Rand.create 60L in
  for _ = 1 to 20 do
    let n = 40 in
    let pts = Wireless.Deploy.uniform rng ~n ~side:100. in
    let g = Wireless.Udg.build pts ~radius:30. in
    let cands =
      List.filter (fun _ -> Wireless.Rand.bool rng) (List.init n Fun.id)
    in
    let winners = Core.Connectors.elect g cands in
    if cands <> [] then check "at least one winner" true (winners <> []);
    List.iter
      (fun w ->
        List.iter
          (fun x -> if x <> w then check "independent" false (Csr.mem_edge g w x))
          winners)
      winners
  done

(* ---------------- two-hop candidates ---------------- *)

let test_candidates_two_hop () =
  (* path 0-1-2: dominators 0 and 2, dominatee 1 is the unique
     candidate *)
  let g = path 3 in
  let roles = Core.Mis.compute g in
  Alcotest.(check (list int)) "candidate" [ 1 ]
    (Core.Connectors.candidates_two_hop g roles 0 2)

(* ---------------- find on crafted graphs ---------------- *)

let test_find_path3 () =
  let g = path 3 in
  let roles = Core.Mis.compute g in
  let r = Core.Connectors.find g roles in
  check "1 is connector" true r.Core.Connectors.connector.(1);
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 1); (1, 2) ] (Csr.edges r.Core.Connectors.cds)

let test_find_path4_three_hop () =
  (* path 0-1-2-3: dominators 0, 2... greedy MIS on path4 = {0, 2};
     no pair at 3 hops among dominators.  Use 0-1-2-3 with roles
     {0,3} dominators?  Greedy gives 0 then 2.  For a genuine 3-hop
     pair use a 6-path: dominators 0, 2, 4 — consecutive ones are two
     hops apart.  A clean 3-hop case needs a crafted graph: two stars
     joined by an edge between leaves. *)
  let g =
    Csr.of_edges 6 [ (0, 2); (2, 3); (3, 1); (0, 4); (1, 5) ]
    (* dominators 0 and 1 (smallest ids, non-adjacent); 2 dominatee of
       0; 3 dominatee of 1; d(0,1) = 3 via 0-2-3-1 *)
  in
  let roles = Core.Mis.compute g in
  check "0 dominator" true (roles.(0) = Core.Mis.Dominator);
  check "1 dominator" true (roles.(1) = Core.Mis.Dominator);
  check "2 dominatee" true (roles.(2) = Core.Mis.Dominatee);
  let r = Core.Connectors.find g roles in
  check "2 connector" true r.Core.Connectors.connector.(2);
  check "3 connector" true r.Core.Connectors.connector.(3);
  check "chain edges" true
    (List.mem (0, 2) (Csr.edges r.Core.Connectors.cds)
    && List.mem (2, 3) (Csr.edges r.Core.Connectors.cds)
    && List.mem (1, 3) (Csr.edges r.Core.Connectors.cds))

let test_find_skips_joined_pairs () =
  (* diamond: dominators 0 and 1 share the common dominatee 2 (two
     hops); node 3 also links them but the three-hop stage must not
     fire because a common dominatee exists *)
  let g = Csr.of_edges 5 [ (0, 2); (2, 1); (0, 3); (3, 4); (4, 1) ] in
  let roles = Core.Mis.compute g in
  let r = Core.Connectors.find g roles in
  check "common dominatee elected" true r.Core.Connectors.connector.(2);
  check "no 3-hop connectors for (0,1)" false
    (r.Core.Connectors.connector.(3) || r.Core.Connectors.connector.(4));
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 2); (1, 2) ] (Csr.edges r.Core.Connectors.cds)

(* ---------------- CDS properties on the snapshot ---------------- *)

let backbone_connected (s : Core.Shard.snapshot) =
  Netgraph.Components.connected_within s.Core.Shard.cds
    (backbone_nodes s.Core.Shard.backbone)

let test_cds_connectivity_random () =
  for seed = 70 to 79 do
    let s = snapshot (Int64.of_int seed) 80 200. 50. in
    check "CDS connects the backbone" true (backbone_connected s);
    check "CDS' spans everything" true (Csr.is_connected (cds' s));
    check "ICDS' spans everything" true (Csr.is_connected s.Core.Shard.icds')
  done

let test_structure_inclusions () =
  let s = snapshot 80L 80 200. 50. in
  let open Core.Shard in
  check "CDS ⊆ ICDS" true (subgraph s.cds s.icds);
  check "CDS ⊆ CDS'" true (subgraph s.cds (cds' s));
  check "CDS' ⊆ ICDS'" true (subgraph (cds' s) s.icds');
  check "ICDS ⊆ UDG" true (subgraph s.icds s.udg);
  check "ICDS' ⊆ UDG" true (subgraph s.icds' s.udg)

let test_cds_edges_touch_backbone_only () =
  let s = snapshot 81L 70 200. 50. in
  Csr.iter_edges s.Core.Shard.cds (fun u v ->
      check "backbone endpoints" true
        (s.Core.Shard.backbone.(u) && s.Core.Shard.backbone.(v)))

let test_icds_is_induced () =
  let s = snapshot 82L 70 200. 50. in
  Csr.iter_edges s.Core.Shard.udg (fun u v ->
      let both = s.Core.Shard.backbone.(u) && s.Core.Shard.backbone.(v) in
      check "induced" true (Csr.mem_edge s.Core.Shard.icds u v = both))

(* CDS' is exactly the CDS plus every UDG link between a dominatee and
   a dominator *)
let test_cds'_adds_exactly_dominatee_links () =
  let s = snapshot 83L 70 200. 50. in
  let roles = s.Core.Shard.roles and cds' = cds' s in
  let dominatee_link u v =
    (roles.(u) = Core.Mis.Dominatee && roles.(v) = Core.Mis.Dominator)
    || (roles.(v) = Core.Mis.Dominatee && roles.(u) = Core.Mis.Dominator)
  in
  Csr.iter_edges s.Core.Shard.udg (fun u v ->
      let want = Csr.mem_edge s.Core.Shard.cds u v || dominatee_link u v in
      check "edge classified" true (Csr.mem_edge cds' u v = want))

(* a geometric instance: nodes at [xs] on the x axis *)
let line_snapshot xs ~radius =
  Core.Shard.pipeline (Array.map (fun x -> P.make x 0.) xs) ~radius

let test_gateway () =
  let gateway (s : Core.Shard.snapshot) =
    Core.Routing.gateway ~udg:s.Core.Shard.udg ~roles:s.Core.Shard.roles
      ~backbone:s.Core.Shard.backbone
  in
  (* star: 0 dominates 1 and 2, which are out of each other's range;
     no connectors, so the leaves are pure dominatees *)
  let star = line_snapshot [| 0.; 1.; -1. |] ~radius:1.5 in
  checki "dominatee routes to dominator" 0 (gateway star 1);
  checki "backbone node is its own" 0 (gateway star 0);
  (* on a path, the middle node is a connector and so its own gateway *)
  let path3 = line_snapshot [| 0.; 1.; 2. |] ~radius:1.2 in
  checki "connector is its own" 1 (gateway path3 1);
  (* a dominatee with two dominators enters at the smaller *)
  let two = line_snapshot [| 0.; 2.; 1. |] ~radius:1.2 in
  checki "smallest-id dominator" 0
    (Core.Routing.gateway ~udg:two.Core.Shard.udg ~roles:two.Core.Shard.roles
       ~backbone:(Array.make 3 false) 2);
  check "no dominator raises" true
    (match
       Core.Routing.gateway ~udg:star.Core.Shard.udg
         ~roles:(Array.make 3 Core.Mis.Dominatee) ~backbone:(Array.make 3 false)
         1
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_backbone_nodes () =
  let s = line_snapshot [| 0.; 1.; 2. |] ~radius:1.2 in
  Alcotest.(check (list int)) "all three on path3" [ 0; 1; 2 ]
    (backbone_nodes s.Core.Shard.backbone)

(* Lemma 4 / Lemma 8: backbone degrees bounded by a constant
   independent of n.  We check a generous numeric bound across
   densities: the paper's constants are large, but empirically CDS
   degrees stay small. *)
let test_bounded_backbone_degree () =
  for seed = 90 to 94 do
    let s = snapshot (Int64.of_int seed) 120 200. 60. in
    let degree g = Netgraph.Metrics.degree_stats g in
    let dcds = degree s.Core.Shard.cds and dicds = degree s.Core.Shard.icds in
    check "CDS degree bounded" true (dcds.Netgraph.Metrics.deg_max <= 30);
    check "ICDS degree bounded" true (dicds.Netgraph.Metrics.deg_max <= 40)
  done

(* A baseline selection's CDS connects its backbone, and its CDS' —
   [Core.Shard.primed] of its CDS over the UDG, which holds every
   dominatee link — spans every node. *)
let variant_connected udg roles (r : Core.Connectors.t) =
  let cds = r.Core.Connectors.cds in
  let backbone =
    Array.mapi
      (fun u role ->
        role = Core.Mis.Dominator || r.Core.Connectors.connector.(u))
      roles
  in
  check "CDS connects the backbone" true
    (Netgraph.Components.connected_within cds (backbone_nodes backbone));
  check "CDS' spans" true (Csr.is_connected (Core.Shard.primed roles udg cds))

(* ---------------- Alzoubi-style selection ---------------- *)

let test_alzoubi_path3 () =
  let g = path 3 in
  let roles = Core.Mis.compute g in
  let r = Core.Connectors.find_alzoubi g roles in
  check "1 is connector" true r.Core.Connectors.connector.(1);
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 1); (1, 2) ] (Csr.edges r.Core.Connectors.cds)

let test_alzoubi_connectivity_random () =
  for seed = 840 to 847 do
    let _, udg = random_instance (Int64.of_int seed) 80 200. 50. in
    let roles = Core.Mis.compute udg in
    variant_connected udg roles (Core.Connectors.find_alzoubi udg roles)
  done

let test_alzoubi_leaner_than_elections () =
  (* one path per direction must never use more edges than the
     multi-gateway elections *)
  let total_a = ref 0 and total_e = ref 0 in
  for seed = 850 to 854 do
    let _, udg = random_instance (Int64.of_int seed) 80 200. 50. in
    let roles = Core.Mis.compute udg in
    let a = Core.Connectors.find_alzoubi udg roles in
    let e = Core.Connectors.find udg roles in
    total_a := !total_a + Csr.edge_count a.Core.Connectors.cds;
    total_e := !total_e + Csr.edge_count e.Core.Connectors.cds
  done;
  check
    (Printf.sprintf "alzoubi edges (%d) <= election edges (%d)" !total_a
       !total_e)
    true (!total_a <= !total_e)

(* ---------------- Baker-Ephremides selection ---------------- *)

let test_baker_path3_highest_id () =
  (* overlapping clusters 0 and 2 share dominatee 1: it is the only
     (hence highest-ID) candidate *)
  let g = path 3 in
  let roles = Core.Mis.compute g in
  let r = Core.Connectors.find_baker g roles in
  check "1 gateway" true r.Core.Connectors.connector.(1);
  Alcotest.(check (list (pair int int)))
    "edges" [ (0, 1); (1, 2) ] (Csr.edges r.Core.Connectors.cds)

let test_baker_picks_highest () =
  (* dominators 0 and 1 with two common dominatees 2 and 3: Baker's
     rule picks 3 (highest), the paper's election picks 2 (lowest) *)
  let g = Csr.of_edges 4 [ (0, 2); (0, 3); (1, 2); (1, 3) ] in
  let roles = Core.Mis.compute g in
  let baker = Core.Connectors.find_baker g roles in
  let paper = Core.Connectors.find g roles in
  check "baker takes 3" true baker.Core.Connectors.connector.(3);
  check "paper takes 2" true paper.Core.Connectors.connector.(2);
  (* 2 and 3 are adjacent to each other?  They are not linked here, so
     the election keeps both as local minima... check: 2 and 3 not
     adjacent means both are local minima and both get elected *)
  check "election keeps independents" true paper.Core.Connectors.connector.(3)

let test_baker_connectivity_random () =
  for seed = 870 to 875 do
    let _, udg = random_instance (Int64.of_int seed) 80 200. 50. in
    let roles = Core.Mis.compute udg in
    variant_connected udg roles (Core.Connectors.find_baker udg roles)
  done

let suites =
  [
    ( "core.connectors",
      [
        Alcotest.test_case "elect local minima" `Quick test_elect_local_minima;
        Alcotest.test_case "winners never adjacent" `Quick
          test_elect_winners_never_adjacent;
        Alcotest.test_case "two-hop candidates" `Quick
          test_candidates_two_hop;
        Alcotest.test_case "path-3 single connector" `Quick test_find_path3;
        Alcotest.test_case "three-hop chain" `Quick test_find_path4_three_hop;
        Alcotest.test_case "skips already-joined pairs" `Quick
          test_find_skips_joined_pairs;
        Alcotest.test_case "alzoubi: path-3" `Quick test_alzoubi_path3;
        Alcotest.test_case "alzoubi: connectivity" `Quick
          test_alzoubi_connectivity_random;
        Alcotest.test_case "alzoubi: leaner" `Quick
          test_alzoubi_leaner_than_elections;
        Alcotest.test_case "baker: path-3" `Quick test_baker_path3_highest_id;
        Alcotest.test_case "baker: highest-ID rule" `Quick
          test_baker_picks_highest;
        Alcotest.test_case "baker: connectivity" `Quick
          test_baker_connectivity_random;
      ] );
    ( "core.cds",
      [
        Alcotest.test_case "connectivity (random)" `Quick
          test_cds_connectivity_random;
        Alcotest.test_case "structure inclusions" `Quick
          test_structure_inclusions;
        Alcotest.test_case "CDS edges touch backbone" `Quick
          test_cds_edges_touch_backbone_only;
        Alcotest.test_case "ICDS is induced" `Quick test_icds_is_induced;
        Alcotest.test_case "CDS' = CDS + dominatee links" `Quick
          test_cds'_adds_exactly_dominatee_links;
        Alcotest.test_case "gateway" `Quick test_gateway;
        Alcotest.test_case "backbone nodes" `Quick test_backbone_nodes;
        Alcotest.test_case "bounded backbone degree" `Quick
          test_bounded_backbone_degree;
      ] );
  ]

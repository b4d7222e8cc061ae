(* Property-based tests (qcheck): the paper's lemmas and the
   substrate's algebraic invariants, checked on randomized inputs. *)

module P = Geometry.Point
module Pred = Geometry.Predicates
module G = Netgraph.Graph

(* ---------------- generators ---------------- *)

let coord = QCheck.Gen.float_range 0. 100.

let gen_point = QCheck.Gen.map2 P.make coord coord

let gen_points ~min ~max =
  QCheck.Gen.(int_range min max >>= fun n -> array_size (return n) gen_point)

(* random connected wireless instance; regenerates until connected *)
let gen_instance ~min ~max ~radius =
  let open QCheck.Gen in
  int_bound 1_000_000 >>= fun seed ->
  int_range min max >>= fun n ->
  return
    (let rng = Wireless.Rand.create (Int64.of_int (seed + 17)) in
     let pts, _ =
       Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
         ~max_attempts:5000
     in
     pts)

let arb gen print = QCheck.make ~print gen

let print_points pts =
  Printf.sprintf "[%d points]" (Array.length pts)

(* ---------------- geometry properties ---------------- *)

let prop_dist_symmetric =
  QCheck.Test.make ~name:"dist symmetric" ~count:200
    (arb QCheck.Gen.(pair gen_point gen_point) (fun _ -> "pair"))
    (fun (a, b) -> P.dist a b = P.dist b a)

let prop_triangle_inequality =
  QCheck.Test.make ~name:"triangle inequality" ~count:200
    (arb QCheck.Gen.(triple gen_point gen_point gen_point) (fun _ -> "triple"))
    (fun (a, b, c) -> P.dist a c <= P.dist a b +. P.dist b c +. 1e-9)

let prop_orient_antisymmetric =
  QCheck.Test.make ~name:"orient2d antisymmetry" ~count:500
    (arb QCheck.Gen.(triple gen_point gen_point gen_point) (fun _ -> "triple"))
    (fun (a, b, c) ->
      let flip = function
        | Pred.Ccw -> Pred.Cw
        | Pred.Cw -> Pred.Ccw
        | Pred.Collinear -> Pred.Collinear
      in
      Pred.orient2d a b c = flip (Pred.orient2d b a c))

let prop_orient_rotation =
  QCheck.Test.make ~name:"orient2d cyclic invariance" ~count:500
    (arb QCheck.Gen.(triple gen_point gen_point gen_point) (fun _ -> "triple"))
    (fun (a, b, c) -> Pred.orient2d a b c = Pred.orient2d b c a)

let prop_incircle_corner_rotation =
  QCheck.Test.make ~name:"incircle invariant under corner rotation" ~count:300
    (arb
       QCheck.Gen.(pair (triple gen_point gen_point gen_point) gen_point)
       (fun _ -> "quad"))
    (fun ((a, b, c), d) ->
      Pred.incircle a b c d = Pred.incircle b c a d)

let prop_segment_intersect_symmetric =
  QCheck.Test.make ~name:"proper intersection symmetric" ~count:300
    (arb
       QCheck.Gen.(
         pair (pair gen_point gen_point) (pair gen_point gen_point))
       (fun _ -> "segs"))
    (fun ((a, b), (c, d)) ->
      let s1 = Geometry.Segment.make a b and s2 = Geometry.Segment.make c d in
      Geometry.Segment.properly_intersect s1 s2
      = Geometry.Segment.properly_intersect s2 s1)

let prop_hull_contains_all =
  QCheck.Test.make ~name:"hull contains all inputs" ~count:50
    (arb (gen_points ~min:3 ~max:60) print_points)
    (fun pts ->
      let h = Geometry.Hull.convex_hull (Array.to_list pts) in
      List.length h < 3
      || Array.for_all (Geometry.Hull.contains_point h) pts)

(* ---------------- Delaunay properties ---------------- *)

let distinct pts =
  let tbl = Hashtbl.create 16 in
  Array.for_all
    (fun (q : P.t) ->
      if Hashtbl.mem tbl (q.x, q.y) then false
      else (
        Hashtbl.add tbl (q.x, q.y) ();
        true))
    pts

let prop_delaunay_empty_circumcircle =
  QCheck.Test.make ~name:"Delaunay empty circumcircle" ~count:40
    (arb (gen_points ~min:3 ~max:80) print_points)
    (fun pts ->
      QCheck.assume (distinct pts);
      let t = Delaunay.Triangulation.triangulate pts in
      Delaunay.Triangulation.is_delaunay pts
        (Delaunay.Triangulation.triangles t))

let prop_delaunay_planar =
  QCheck.Test.make ~name:"Delaunay edges are planar" ~count:25
    (arb (gen_points ~min:3 ~max:60) print_points)
    (fun pts ->
      QCheck.assume (distinct pts);
      let t = Delaunay.Triangulation.triangulate pts in
      let g =
        G.of_edges (Array.length pts) (Delaunay.Triangulation.edges t)
      in
      Netgraph.Planarity.is_planar g pts)

(* ---------------- paper lemmas on random instances ---------------- *)

let prop_mis_valid =
  QCheck.Test.make ~name:"clustering yields a maximal independent set"
    ~count:25
    (arb (gen_instance ~min:20 ~max:80 ~radius:50.) print_points)
    (fun pts ->
      let g = Wireless.Udg.build pts ~radius:50. in
      let roles = Core.Mis.compute g in
      Core.Mis.is_independent g roles
      && Core.Mis.is_dominating g roles
      && Core.Mis.is_maximal g roles)

let prop_lemma1_five_dominators =
  QCheck.Test.make ~name:"Lemma 1: dominatee has ≤ 5 dominators" ~count:25
    (arb (gen_instance ~min:30 ~max:100 ~radius:50.) print_points)
    (fun pts ->
      let g = Wireless.Udg.build pts ~radius:50. in
      let roles = Core.Mis.compute g in
      let ok = ref true in
      Array.iteri
        (fun u r ->
          if
            r = Core.Mis.Dominatee
            && List.length (Core.Mis.dominators_of g roles u) > 5
          then ok := false)
        roles;
      !ok)

let prop_lemma2_bounded_dominators_in_disk =
  QCheck.Test.make
    ~name:"Lemma 2: dominators within 2R of a node are bounded" ~count:20
    (arb (gen_instance ~min:40 ~max:120 ~radius:40.) print_points)
    (fun pts ->
      let radius = 40. in
      let g = Wireless.Udg.build pts ~radius in
      let roles = Core.Mis.compute g in
      (* Lemma 2 with k = 2: the area argument gives pi(k+.5)^2/(pi/4)
         = (2k+1)^2 = 25; any two dominators are > R apart so the
         bound holds with room to spare *)
      Array.for_all
        (fun (p : P.t) ->
          let count = ref 0 in
          Array.iteri
            (fun v r ->
              if r = Core.Mis.Dominator && P.dist p pts.(v) <= 2. *. radius
              then incr count)
            roles;
          !count <= 25)
        pts)

(* The snapshots the lemma properties read: the pipeline's one-tile
   build and a 3x3 tiling of the same deployment. *)
let snapshots pts ~radius =
  List.map (fun tiles -> Core.Shard.pipeline ~tiles pts ~radius) [ 1; 3 ]

let cds' (s : Core.Shard.snapshot) =
  Core.Shard.primed s.Core.Shard.roles s.Core.Shard.icds' s.Core.Shard.cds

let prop_cds_connected =
  QCheck.Test.make ~name:"CDS connects the backbone" ~count:20
    (arb (gen_instance ~min:30 ~max:100 ~radius:50.) print_points)
    (fun pts ->
      List.for_all
        (fun (s : Core.Shard.snapshot) ->
          let backbone = s.Core.Shard.backbone in
          Netgraph.Components.connected_within_v
            (Netgraph.View.of_csr s.Core.Shard.cds)
            (List.filter
               (fun u -> backbone.(u))
               (List.init (Array.length pts) Fun.id)))
        (snapshots pts ~radius:50.))

(* Lemma 5: a UDG path of h hops maps to at most
   [Bounds.hop_stretch * h + 2] hops in CDS'. *)
let prop_lemma5_hop_stretch =
  QCheck.Test.make
    ~name:"Lemma 5: CDS' hop distance ≤ 3h + 2" ~count:12
    (arb (gen_instance ~min:25 ~max:70 ~radius:50.) print_points)
    (fun pts ->
      List.for_all
        (fun (s : Core.Shard.snapshot) ->
          let cds' = cds' s in
          let n = Array.length pts in
          let ok = ref true in
          for src = 0 to n - 1 do
            let hb = Netgraph.Csr.bfs s.Core.Shard.udg src in
            let hs = Netgraph.Csr.bfs cds' src in
            for t = 0 to n - 1 do
              if t <> src && hb.(t) <> max_int then
                if
                  hs.(t) = max_int
                  || hs.(t) > (Core.Bounds.hop_stretch * hb.(t)) + 2
                then ok := false
            done
          done;
          !ok)
        (snapshots pts ~radius:50.))

(* Lemma 6: a UDG path of length len maps to a CDS' path of length at
   most [Bounds.length_stretch * len + 5R]. *)
let prop_lemma6_length_stretch =
  QCheck.Test.make
    ~name:"Lemma 6: CDS' length ≤ 6·len + 5R" ~count:12
    (arb (gen_instance ~min:25 ~max:70 ~radius:50.) print_points)
    (fun pts ->
      let radius = 50. in
      List.for_all
        (fun (s : Core.Shard.snapshot) ->
          let udg = Netgraph.View.of_csr s.Core.Shard.udg in
          let cds' = Netgraph.View.of_csr (cds' s) in
          let n = Array.length pts in
          let ok = ref true in
          for src = 0 to n - 1 do
            let db = Netgraph.Traversal.dijkstra_v udg pts src in
            let ds = Netgraph.Traversal.dijkstra_v cds' pts src in
            for t = 0 to n - 1 do
              if t <> src && db.(t) < infinity then
                if
                  ds.(t)
                  > (float_of_int Core.Bounds.length_stretch *. db.(t))
                    +. (5. *. radius) +. 1e-6
                then ok := false
            done
          done;
          !ok)
        (snapshots pts ~radius))

let prop_pldel_planar =
  QCheck.Test.make ~name:"PLDel(ICDS) is planar" ~count:15
    (arb (gen_instance ~min:30 ~max:90 ~radius:50.) print_points)
    (fun pts ->
      let bb = Core.Backbone.build pts ~radius:50. in
      Netgraph.Planarity.is_planar bb.Core.Backbone.ldel_icds_g pts)

let prop_ldel_icds'_spans =
  QCheck.Test.make ~name:"LDel(ICDS') spans all nodes" ~count:15
    (arb (gen_instance ~min:30 ~max:90 ~radius:50.) print_points)
    (fun pts ->
      let bb = Core.Backbone.build pts ~radius:50. in
      Netgraph.Csr.is_connected bb.Core.Backbone.snap.Core.Shard.pldel')

let prop_rng_lune_empty =
  QCheck.Test.make ~name:"RNG edges have empty lunes" ~count:15
    (arb (gen_instance ~min:20 ~max:60 ~radius:50.) print_points)
    (fun pts ->
      let udg = Wireless.Udg.build pts ~radius:50. in
      let rng_g = Wireless.Proximity.rng_graph udg pts in
      G.fold_edges rng_g
        (fun acc u v ->
          acc
          && Array.for_all
               (fun w ->
                 P.equal w pts.(u) || P.equal w pts.(v)
                 || not (Geometry.Circle.in_lune pts.(u) pts.(v) w))
               pts)
        true)

let prop_gabriel_disk_empty =
  QCheck.Test.make ~name:"Gabriel edges have empty diametral disks" ~count:15
    (arb (gen_instance ~min:20 ~max:60 ~radius:50.) print_points)
    (fun pts ->
      let udg = Wireless.Udg.build pts ~radius:50. in
      let gg = Wireless.Proximity.gabriel_graph udg pts in
      G.fold_edges gg
        (fun acc u v ->
          acc
          && Array.for_all
               (fun w ->
                 P.equal w pts.(u) || P.equal w pts.(v)
                 || not (Geometry.Circle.in_diametral pts.(u) pts.(v) w))
               pts)
        true)

let prop_gfg_delivers =
  QCheck.Test.make ~name:"GFG delivers on the planar backbone" ~count:10
    (arb (gen_instance ~min:30 ~max:70 ~radius:50.) print_points)
    (fun pts ->
      let bb = Core.Backbone.build pts ~radius:50. in
      let planar = (Core.Backbone.ldel_full bb).Core.Ldel.planar in
      let planar_v = Netgraph.View.of_graph planar in
      let n = Array.length pts in
      let ok = ref true in
      for src = 0 to min 10 (n - 1) do
        let dst = n - 1 - src in
        if src <> dst then
          match Core.Routing.gfg planar_v pts ~src ~dst with
          | Some p -> if not (Netgraph.Traversal.is_path planar p) then ok := false
          | None -> ok := false
      done;
      !ok)

(* The distributed protocol is the independent oracle for the one
   construction path, so it checks every tiling shape: [Auto] (one
   tile at these sizes) and forced 2x2 / 3x3 tiles fanned out on a
   two-domain pool. *)
let gen_partition =
  QCheck.Gen.oneofl
    Core.Backbone.Config.[ Auto; Tiles 2; Tiles 3 ]

let print_partition = function
  | Core.Backbone.Config.Auto -> "Auto"
  | Core.Backbone.Config.Tiles k -> Printf.sprintf "Tiles %d" k

let prop_protocol_equals_centralized =
  QCheck.Test.make ~name:"protocol ≡ centralized (randomized)" ~count:12
    (arb
       QCheck.Gen.(pair (gen_instance ~min:20 ~max:50 ~radius:50.) gen_partition)
       (fun (pts, partition) ->
         Printf.sprintf "%s, %s" (print_points pts) (print_partition partition)))
    (fun (pts, partition) ->
      let bb =
        Core.Backbone.run
          {
            Core.Backbone.Config.default with
            Core.Backbone.Config.radius = 50.;
            partition;
            jobs = 2;
          }
          pts
      in
      let pr = Core.Protocol.run pts ~radius:50. in
      let s = bb.Core.Backbone.snap in
      pr.Core.Protocol.roles = s.Core.Shard.roles
      && pr.Core.Protocol.cds_edges = Netgraph.Csr.edges s.Core.Shard.cds
      && G.equal pr.Core.Protocol.ldel_graph bb.Core.Backbone.ldel_icds_g)

(* The protocol's message accounting, derived from the structures it
   returns: every handler sends exactly what the paper's phases call
   for, so a rewrite that drops or duplicates a message shows up as a
   per-kind mismatch.  Sparse and dense radii. *)
let prop_protocol_message_accounting =
  QCheck.Test.make ~name:"protocol per-kind message accounting" ~count:16
    (arb
       QCheck.Gen.(
         oneofl [ (40, 70, 40.); (30, 60, 90.) ] >>= fun (min, max, radius) ->
         gen_instance ~min ~max ~radius >|= fun pts -> (pts, radius))
       (fun (pts, radius) -> Printf.sprintf "%s, R=%g" (print_points pts) radius))
    (fun (pts, radius) ->
      let module Pr = Core.Protocol in
      let pr = Pr.run pts ~radius in
      let n = Array.length pts in
      let kind k =
        Option.value ~default:0
          (List.assoc_opt k (Pr.ldel_stats pr).Distsim.Engine.by_kind)
      in
      let udg = Wireless.Udg.build pts ~radius in
      let is_dom v = pr.Pr.roles.(v) = Core.Mis.Dominator in
      let count p = List.length (List.filter p (List.init n Fun.id)) in
      let dominators = count is_dom in
      let dominatee_links =
        List.fold_left
          (fun acc u ->
            if is_dom u then acc
            else acc + List.length (List.filter is_dom (G.neighbors udg u)))
          0 (List.init n Fun.id)
      in
      let in_icds =
        List.sort_uniq compare
          (List.concat_map (fun (u, v) -> [ u; v ]) pr.Pr.icds_edges)
      in
      let connectors = count (fun v -> pr.Pr.connector.(v)) in
      kind "Hello" = n
      && kind "Status" = n
      && kind "IamDominator" = dominators
      && kind "TwoHopDoms" = dominators
      && kind "IamDominatee" = dominatee_links
      && kind "ShareTriangles" = List.length in_icds
      && kind "RemainingTriangles" = List.length in_icds
      && kind "IamConnector" >= connectors)

let to_alcotest tests = List.map (fun t -> QCheck_alcotest.to_alcotest t) tests

let suites =
  [
    ( "properties.geometry",
      to_alcotest
        [
          prop_dist_symmetric;
          prop_triangle_inequality;
          prop_orient_antisymmetric;
          prop_orient_rotation;
          prop_incircle_corner_rotation;
          prop_segment_intersect_symmetric;
          prop_hull_contains_all;
        ] );
    ( "properties.delaunay",
      to_alcotest [ prop_delaunay_empty_circumcircle; prop_delaunay_planar ]
    );
    ( "properties.lemmas",
      to_alcotest
        [
          prop_mis_valid;
          prop_lemma1_five_dominators;
          prop_lemma2_bounded_dominators_in_disk;
          prop_cds_connected;
          prop_lemma5_hop_stretch;
          prop_lemma6_length_stretch;
          prop_pldel_planar;
          prop_ldel_icds'_spans;
          prop_rng_lune_empty;
          prop_gabriel_disk_empty;
          prop_gfg_delivers;
          prop_protocol_equals_centralized;
          prop_protocol_message_accounting;
        ] );
  ]

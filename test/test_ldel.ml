(* Localized Delaunay (Algorithms 2-3): local triangle computation,
   acceptance, planarization. *)

module G = Netgraph.Csr
module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let random_instance seed n side radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side ~radius ~max_attempts:2000
  in
  (pts, Wireless.Udg.build pts ~radius)

let test_local_triangles_triangle () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 0.5 0.8 |] in
  let g = Wireless.Udg.build pts ~radius:1.5 in
  check "single local triangle" true
    (Core.Ldel.local_delaunay_triangles g pts 0 = [ (0, 1, 2) ])

let test_local_triangles_from_neighborhood_equivalence () =
  let pts, udg = random_instance 100L 60 200. 50. in
  for u = 0 to 59 do
    let via_graph = Core.Ldel.local_delaunay_triangles udg pts u in
    let via_view =
      Core.Ldel.local_triangles_of_neighborhood ~me:u ~me_pos:pts.(u)
        ~nbrs:(List.map (fun v -> (v, pts.(v))) (G.neighbors udg u))
    in
    check "same triangles" true (via_graph = via_view)
  done

let test_triangle_fits () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 0. 1. |] in
  check "fits" true (Core.Ldel.triangle_fits pts ~radius:1.5 (0, 1, 2));
  check "hypotenuse too long" false
    (Core.Ldel.triangle_fits pts ~radius:1.2 (0, 1, 2))

let test_triangles_intersect_cases () =
  let pts =
    [|
      P.make 0. 0.; (* 0 *)
      P.make 4. 0.; (* 1 *)
      P.make 2. 3.; (* 2 *)
      P.make 2. 1.; (* 3: inside triangle 0-1-2 *)
      P.make 6. 0.; (* 4 *)
      P.make 5. 2.; (* 5 *)
      P.make 0. 5.; (* 6 *)
      P.make 1. 4.; (* 7 *)
      P.make (-2.) 4.; (* 8 *)
      P.make 5. (-1.); (* 9 *)
      P.make 5. 1.; (* 10 *)
    |]
  in
  let ti = Core.Ldel.triangles_intersect pts in
  (* containment without edge crossings: tiny triangle inside big *)
  let tiny = (3, 3, 3) in
  ignore tiny;
  check "vertex inside" true (ti (0, 1, 2) (3, 4, 5));
  (* sharing an edge, disjoint interiors *)
  check "shared edge ok" false (ti (0, 1, 2) (1, 2, 5));
  (* sharing a vertex only *)
  check "shared vertex ok" false (ti (0, 1, 2) (2, 6, 7));
  (* sharing vertex 1, with edge 1-4 running on along the line of
     edge 0-1: the edges that touch all meet at the shared endpoint *)
  check "shared endpoint, nothing crosses" false (ti (0, 1, 2) (1, 4, 5));
  (* sharing vertex 0, while edge 0-10 crosses edge 1-2 *)
  check "shared endpoint, another edge crosses" true (ti (0, 1, 2) (0, 9, 10));
  (* disjoint *)
  check "disjoint" false (ti (0, 1, 3) (6, 7, 8))

(* Reference for the property below: [triangles_intersect] written
   over lists and [Segment.t] values, with no shared-endpoint shortcut
   and every orientation evaluated. *)
let oracle_triangles_intersect points (a1, b1, c1) (a2, b2, c2) =
  let module Pred = Geometry.Predicates in
  let t1 = [ a1; b1; c1 ] and t2 = [ a2; b2; c2 ] in
  let shared v = List.mem v t1 in
  let edge_of = function
    | [ x; y; z ] -> [ (x, y); (y, z); (z, x) ]
    | _ -> assert false
  in
  let seg (u, v) = Geometry.Segment.make points.(u) points.(v) in
  let crossing =
    List.exists
      (fun e1 ->
        List.exists
          (fun e2 -> Geometry.Segment.properly_intersect (seg e1) (seg e2))
          (edge_of t2))
      (edge_of t1)
  in
  crossing
  ||
  let strictly_inside (x, y, z) v =
    let inside_ccw a b c p =
      Pred.orient2d points.(a) points.(b) p = Pred.Ccw
      && Pred.orient2d points.(b) points.(c) p = Pred.Ccw
      && Pred.orient2d points.(c) points.(a) p = Pred.Ccw
    in
    match Pred.orient2d points.(x) points.(y) points.(z) with
    | Pred.Ccw -> inside_ccw x y z points.(v)
    | Pred.Cw -> inside_ccw x z y points.(v)
    | Pred.Collinear -> false
  in
  List.exists (fun v -> (not (shared v)) && strictly_inside (a1, b1, c1) v) t2
  || List.exists
       (fun v -> (not (List.mem v t2)) && strictly_inside (a2, b2, c2) v)
       t1

(* Triangle pairs over 9 points, by family.  Small-integer coordinates
   make collinear corners and coincident points common. *)
let gen_triangle_pair =
  let open QCheck.Gen in
  let coord = oneof [ map float_of_int (int_range 0 3); float_range 0. 4. ] in
  let point = map2 P.make coord coord in
  let id = int_range 0 8 in
  let tri = triple id id id in
  let perm (a, b, c) =
    oneofl [ (a, b, c); (b, c, a); (c, a, b); (b, a, c); (a, c, b); (c, b, a) ]
  in
  let distinct3 =
    map
      (fun l ->
        match l with
        | a :: b :: c :: d :: e :: f :: _ -> ((a, b, c), (d, e, f))
        | _ -> assert false)
      (shuffle_l [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  let family =
    oneof
      [
        (* random ids, possibly repeated within a triangle *)
        map (fun p -> ("random", p)) (pair tri tri);
        (* one shared corner *)
        ( distinct3 >>= fun ((a, b, c), (d, e, _)) ->
          perm (a, d, e) >|= fun t2 -> ("shared vertex", ((a, b, c), t2)) );
        (* two shared corners *)
        ( distinct3 >>= fun ((a, b, c), (d, _, _)) ->
          perm (a, b, d) >|= fun t2 -> ("shared edge", ((a, b, c), t2)) );
        ( distinct3 >>= fun (t1, _) ->
          perm t1 >|= fun t2 -> ("identical", (t1, t2)) );
        map (fun p -> ("disjoint ids", p)) distinct3;
      ]
  in
  array_size (return 9) point >>= fun pts ->
  family >>= fun (name, (t1, t2)) ->
  oneofl [ `Plain; `Collinear; `Coincident; `Nested ] >|= fun shape ->
  let pts = Array.copy pts in
  let a2, b2, c2 = t2 and a1, b1, c1 = t1 in
  (match shape with
  | `Plain -> ()
  | `Collinear ->
    (* t1's corners on one line *)
    pts.(b1) <- P.make (2. *. pts.(a1).P.x) (2. *. pts.(a1).P.y);
    pts.(c1) <- P.make (3. *. pts.(a1).P.x) (3. *. pts.(a1).P.y)
  | `Coincident ->
    (* distinct ids at equal coordinates across the pair *)
    pts.(a2) <- pts.(b1)
  | `Nested ->
    (* t2 strictly inside t1, where the ids allow it *)
    pts.(a1) <- P.make 0. 0.;
    pts.(b1) <- P.make 8. 0.;
    pts.(c1) <- P.make 0. 8.;
    if a2 <> a1 && a2 <> b1 && a2 <> c1 then pts.(a2) <- P.make 1. 1.;
    if b2 <> a1 && b2 <> b1 && b2 <> c1 then pts.(b2) <- P.make 3. 1.;
    if c2 <> a1 && c2 <> b1 && c2 <> c1 then pts.(c2) <- P.make 1. 3.);
  (name, pts, t1, t2)

let print_triangle_pair (name, pts, (a1, b1, c1), (a2, b2, c2)) =
  Printf.sprintf "%s: (%d,%d,%d) (%d,%d,%d) over [%s]" name a1 b1 c1 a2 b2 c2
    (String.concat "; "
       (Array.to_list
          (Array.map (fun (p : P.t) -> Printf.sprintf "%g,%g" p.x p.y) pts)))

let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"triangles_intersect = list oracle" ~count:3000
    (QCheck.make ~print:print_triangle_pair gen_triangle_pair)
    (fun (_, pts, t1, t2) ->
      let k = Core.Ldel.triangles_intersect pts in
      k t1 t2 = oracle_triangles_intersect pts t1 t2
      && k t2 t1 = oracle_triangles_intersect pts t2 t1)

let test_circumcircle_contains () =
  let pts = [| P.make 0. 0.; P.make 2. 0.; P.make 0. 2.; P.make 1. 1.; P.make 9. 9. |] in
  check "inside" true (Core.Ldel.circumcircle_contains pts (0, 1, 2) 3);
  check "outside" false (Core.Ldel.circumcircle_contains pts (0, 1, 2) 4);
  check "corner excluded" false (Core.Ldel.circumcircle_contains pts (0, 1, 2) 0)

(* The key theorems from Li et al. that the paper relies on, checked
   empirically on random instances: *)

let test_ldel_contains_gabriel () =
  let pts, udg = random_instance 101L 80 200. 50. in
  let l = Tgraph.ldel_build udg pts ~radius:50. in
  let gg = Wireless.Proximity.gabriel_graph udg pts in
  check "GG ⊆ LDel1" true (Tgraph.is_subgraph gg l.Tgraph.ldel1);
  check "GG ⊆ PLDel" true (Tgraph.is_subgraph gg l.Tgraph.planar)

let test_ldel_contains_udel () =
  (* unit Delaunay triangles are 1-localized Delaunay triangles, so
     UDel ⊆ LDel1 *)
  let pts, udg = random_instance 102L 80 200. 50. in
  let l = Tgraph.ldel_build udg pts ~radius:50. in
  let udel = Wireless.Proximity.udel pts ~radius:50. in
  check "UDel ⊆ LDel1" true (Tgraph.is_subgraph udel l.Tgraph.ldel1)

let test_pldel_planar_and_connected () =
  for seed = 110 to 119 do
    let pts, udg = random_instance (Int64.of_int seed) 90 200. 50. in
    let l = Tgraph.ldel_build udg pts ~radius:50. in
    check "planar" true (Netgraph.Planarity.is_planar l.Tgraph.planar pts);
    check "connected" true
      (Netgraph.Csr.is_connected l.Tgraph.planar);
    check "planar ⊆ ldel1" true
      (Tgraph.is_subgraph l.Tgraph.planar l.Tgraph.ldel1);
    check "ldel1 within UDG distance" true
      (G.fold_edges l.Tgraph.ldel1
         (fun acc u v -> acc && P.dist pts.(u) pts.(v) <= 50.)
         true)
  done

let test_ldel1_thickness_two_edge_bound () =
  (* LDel1 has thickness 2, hence at most 2(3n - 6) edges *)
  let pts, udg = random_instance 120L 100 200. 60. in
  let l = Tgraph.ldel_build udg pts ~radius:60. in
  let n = Array.length pts in
  check "edge bound" true
    (G.edge_count l.Tgraph.ldel1 <= 2 * ((3 * n) - 6))

let test_kept_subset_accepted () =
  let pts, udg = random_instance 121L 80 200. 50. in
  let l = Tgraph.ldel_build udg pts ~radius:50. in
  let module TS = Set.Make (struct
    type t = int * int * int

    let compare = compare
  end) in
  let acc = TS.of_list l.Tgraph.triangles in
  check "kept ⊆ accepted" true
    (List.for_all (fun t -> TS.mem t acc) l.Tgraph.kept_triangles)

let test_ldel_on_icds () =
  (* the pipeline case: LDel over the induced backbone stays planar,
     connected on backbone nodes, and only touches backbone nodes *)
  for seed = 130 to 134 do
    let pts, _ = random_instance (Int64.of_int seed) 90 200. 50. in
    let s = Core.Shard.pipeline pts ~radius:50. in
    let backbone = s.Core.Shard.backbone in
    let l =
      Tgraph.ldel_build s.Core.Shard.icds pts ~radius:50.
    in
    check "planar" true (Netgraph.Planarity.is_planar l.Tgraph.planar pts);
    check "backbone connected" true
      (Netgraph.Components.connected_within l.Tgraph.planar
         (List.filter
            (fun u -> backbone.(u))
            (List.init (Array.length pts) Fun.id)));
    G.iter_edges l.Tgraph.planar (fun u v ->
        check "backbone only" true (backbone.(u) && backbone.(v)));
    Alcotest.(check (list (pair int int)))
      "the snapshot's pldel" (G.edges l.Tgraph.planar)
      (Netgraph.Csr.edges s.Core.Shard.pldel)
  done

let test_degenerate_inputs () =
  (* two nodes: single Gabriel edge, no triangles *)
  let pts = [| P.make 0. 0.; P.make 1. 0. |] in
  let udg = Wireless.Udg.build pts ~radius:2. in
  let l = Tgraph.ldel_build udg pts ~radius:2. in
  checki "no triangles" 0 (List.length l.Tgraph.triangles);
  check "edge kept" true (G.mem_edge l.Tgraph.planar 0 1);
  (* collinear nodes: consecutive edges are Gabriel, no triangles *)
  let pts = Array.init 4 (fun i -> P.make (float_of_int i) 0.) in
  let udg = Wireless.Udg.build pts ~radius:1.5 in
  let l = Tgraph.ldel_build udg pts ~radius:1.5 in
  checki "no triangles" 0 (List.length l.Tgraph.triangles);
  check "path kept" true
    (G.mem_edge l.Tgraph.planar 0 1
    && G.mem_edge l.Tgraph.planar 1 2
    && G.mem_edge l.Tgraph.planar 2 3);
  (* two coincident nodes that only hear each other: one Gabriel edge;
     no neighbourhood has two neighbours to triangulate, so the
     duplicate is not an error *)
  let pts = [| P.make 0. 0.; P.make 0. 0.; P.make 100. 100. |] in
  let udg = Wireless.Udg.build pts ~radius:1. in
  let l = Tgraph.ldel_build udg pts ~radius:1. in
  check "coincident pair: Gabriel edge" true
    (l.Tgraph.gabriel_edges = [ (0, 1) ] && l.Tgraph.triangles = [])

let test_dense_equals_udel_plus () =
  (* when the radius covers the whole deployment, every node sees
     everything: LDel1 = Del (all triangles survive) *)
  let rng = Wireless.Rand.create 140L in
  let pts =
    Array.init 20 (fun _ ->
        P.make (Wireless.Rand.float rng 10.) (Wireless.Rand.float rng 10.))
  in
  let radius = 100. in
  let udg = Wireless.Udg.build pts ~radius in
  let l = Tgraph.ldel_build udg pts ~radius in
  let del = Delaunay.Triangulation.triangulate pts in
  let del_edges = Delaunay.Triangulation.edges del in
  check "LDel1 = Del when everyone sees everyone" true
    (List.sort compare (G.edges l.Tgraph.ldel1) = del_edges);
  check "planarization removes nothing" true
    (List.length l.Tgraph.kept_triangles
    = List.length l.Tgraph.triangles)

(* ------------------------------------------------------------------ *)
(* Algorithm 3 against the planarization it replaced                   *)
(* ------------------------------------------------------------------ *)

(* The bucket-grid planarization as it stood before the shared-corner
   shortcut and the bucket-ordered arrays: every box-overlapping,
   mutually visible pair goes through [triangles_intersect]. *)
let oracle_planarize ?pool csr points ~radius tris_list =
  let module C = Netgraph.Csr in
  let module L = Core.Ldel in
  let tris = Array.of_list tris_list in
  let m = Array.length tris in
  if m = 0 then []
  else begin
    let boxes = Array.map (L.triangle_bbox points) tris in
    let sees x a b c =
      x = a || x = b || x = c || C.mem_edge csr x a || C.mem_edge csr x b
      || C.mem_edge csr x c
    in
    let mutually_visible_csr (a1, b1, c1) (a2, b2, c2) =
      sees a1 a2 b2 c2 || sees b1 a2 b2 c2 || sees c1 a2 b2 c2
    in
    let grid =
      Wireless.Cellgrid.create ~cell_size:radius
        (Array.map
           (fun (b : Geometry.Bbox.t) -> { Geometry.Point.x = b.xmin; y = b.ymin })
           boxes)
    in
    let nx = grid.Wireless.Cellgrid.nx and ny = grid.Wireless.Cellgrid.ny in
    let start = grid.Wireless.Cellgrid.start in
    let order = grid.Wireless.Cellgrid.order in
    let removed = Array.make m false in
    let process i =
      let bi = boxes.(i) in
      let k = grid.Wireless.Cellgrid.cell_ix.(i) in
      let cx = k mod nx and cy = k / nx in
      let x_lo = if cx > 0 then cx - 1 else 0 in
      let x_hi = if cx < nx - 1 then cx + 1 else cx in
      for y = (if cy > 0 then cy - 1 else 0) to
              if cy < ny - 1 then cy + 1 else cy do
        let r = y * nx in
        for idx = start.(r + x_lo) to start.(r + x_hi + 1) - 1 do
          let j = order.(idx) in
          if
            j > i
            && Geometry.Bbox.overlaps bi boxes.(j)
            && mutually_visible_csr tris.(i) tris.(j)
            && L.triangles_intersect points tris.(i) tris.(j)
          then begin
            if L.circumcircle_contains_corner points tris.(i) tris.(j) then
              removed.(i) <- true;
            if L.circumcircle_contains_corner points tris.(j) tris.(i) then
              removed.(j) <- true
          end
        done
      done
    in
    (match pool with
    | Some p ->
      Obs.quiesced (fun () ->
          Netgraph.Pool.parallel_for p ~n:m (fun () -> process))
    | None ->
      for i = 0 to m - 1 do
        process i
      done);
    let kept = ref [] in
    for i = m - 1 downto 0 do
      if not removed.(i) then kept := tris.(i) :: !kept
    done;
    !kept
  end

(* The list builder LDel had before its parts were packed, kept as the
   oracle of the packed build and of the snapshot's [pldel]: every
   node's star from [Delaunay.Star], a triangle accepted from its min
   corner when it is consecutive in all three corners' links and its
   links fit, Gabriel edges from the owner side of each row, all as
   sorted lists, and Algorithm 3 as [oracle_planarize] above. *)
module Ldel_oracle = struct
  module C = Netgraph.Csr

  let build csr points ~radius =
    let n = C.node_count csr in
    let off = C.offsets csr and nbrs = C.targets csr in
    let link = Array.make (Array.length nbrs) 0 in
    let closed = Array.make n false in
    let sc = Delaunay.Star.scratch () in
    (* the consecutive pairs of each node's link, cyclic when closed *)
    let steps =
      Array.init n (fun u ->
          let len =
            Delaunay.Star.link_into sc points ~center:u ~nbrs ~lo:off.(u)
              ~hi:off.(u + 1) ~link ~closed
          in
          let l = Array.sub link off.(u) len in
          List.init
            (if closed.(u) then len else max 0 (len - 1))
            (fun i -> (l.(i), l.((i + 1) mod len))))
    in
    let triangles =
      List.concat
        (List.init n (fun u ->
             List.sort compare
               (List.filter_map
                  (fun (a, b) ->
                    if
                      a > u && b > u
                      && Core.Ldel.triangle_fits points ~radius (u, a, b)
                      && List.mem (b, u) steps.(a)
                      && List.mem (u, a) steps.(b)
                    then Some (u, min a b, max a b)
                    else None)
                  steps.(u))))
    in
    let gabriel =
      List.concat
        (List.init n (fun u ->
             let row = C.neighbors csr u in
             List.filter_map
               (fun v ->
                 if
                   v > u
                   && not
                        (List.exists
                           (fun w ->
                             w <> v
                             && Geometry.Circle.in_diametral points.(u)
                                  points.(v) points.(w))
                           row)
                 then Some (u, v)
                 else None)
               row))
    in
    (gabriel, triangles, oracle_planarize csr points ~radius triangles)
end

(* A uniform deployment's UDG with each edge dropped with probability
   [drop]: partial visibility makes LDel¹ triangles cross, so
   Algorithm 3 has something to remove. *)
let thinned_instance seed n radius drop =
  let rng = Wireless.Rand.create seed in
  let pts = Wireless.Deploy.uniform rng ~n ~side:100. in
  let udg = Wireless.Udg.build pts ~radius in
  let kept =
    G.fold_edges udg
      (fun acc u v -> if Wireless.Rand.float rng 1. >= drop then (u, v) :: acc else acc)
      []
  in
  (pts, G.of_edges n kept)

let gen_instance =
  QCheck.Gen.(
    quad (int_range 0 100_000) (int_range 20 150) (float_range 10. 50.)
      (oneofl [ 0.; 0.2; 0.4 ]))

let print_instance (seed, n, radius, drop) =
  Printf.sprintf "seed %d, n %d, radius %h, drop %g" seed n radius drop

let prop_planarize_matches_oracle =
  QCheck.Test.make ~name:"Algorithm 3 = pre-shortcut planarization" ~count:150
    (QCheck.make ~print:print_instance gen_instance)
    (fun (seed, n, radius, drop) ->
      let pts, csr = thinned_instance (Int64.of_int seed) n radius drop in
      let parts = Tgraph.ldel csr (Core.Ldel.build csr pts ~radius) in
      parts.Tgraph.kept_triangles
      = oracle_planarize csr pts ~radius parts.Tgraph.triangles)

(* the packed build, read off as lists, against the list builder it
   replaced, on the same thinned family *)
let prop_packed_matches_list_builder =
  QCheck.Test.make ~name:"Ldel.build = list oracle" ~count:150
    (QCheck.make ~print:print_instance gen_instance)
    (fun (seed, n, radius, drop) ->
      let pts, csr = thinned_instance (Int64.of_int seed) n radius drop in
      Tgraph.ldel_lists (Tgraph.ldel csr (Core.Ldel.build csr pts ~radius))
      = Ldel_oracle.build csr pts ~radius)

let test_planarize_removes_like_oracle () =
  (* instances where Algorithm 3 does remove triangles, serial and on
     a pool with several tiles *)
  let removals = ref 0 in
  Netgraph.Pool.with_pool ~jobs:2 (fun pool ->
      for seed = 1 to 40 do
        let pts, csr = thinned_instance (Int64.of_int seed) 120 30. 0.3 in
        let build ?pool ?owners () =
          Tgraph.ldel csr
            (Core.Ldel.build ?pool ?owners csr pts ~radius:30.)
        in
        let want =
          oracle_planarize csr pts ~radius:30. (build ()).Tgraph.triangles
        in
        let owners = Core.Shard.tiling ~tiles:3 pts ~radius:30. in
        let serial = build () in
        let pooled = build ~pool ~owners () in
        check "serial = oracle" true (serial.Tgraph.kept_triangles = want);
        check "pooled = serial" true (pooled = serial);
        removals :=
          !removals
          + List.length serial.Tgraph.triangles
          - List.length serial.Tgraph.kept_triangles
      done);
  check "some triangles removed" true (!removals > 0)

(* The shortcut's lemma: accepted triangles that share a corner are
   triangles of that corner's one local triangulation, so they never
   intersect.  [corner_sharing_pairs] counts the pairs of accepted
   triangles of [g] that share a corner, and returns the first that
   also intersect. *)
let corner_sharing_pairs g pts ~radius =
  let tri = (Core.Ldel.build g pts ~radius).Core.Ldel.tri in
  let m = Array.length tri / 3 in
  let shared = ref 0 and bad = ref None in
  for i = 0 to m - 1 do
    let a1 = tri.(3 * i) and b1 = tri.((3 * i) + 1) and c1 = tri.((3 * i) + 2) in
    for j = i + 1 to m - 1 do
      let a2 = tri.(3 * j) and b2 = tri.((3 * j) + 1) and c2 = tri.((3 * j) + 2) in
      if Core.Ldel.shares_corner a1 b1 c1 a2 b2 c2 then begin
        incr shared;
        if
          Option.is_none !bad
          && Core.Ldel.triangles_intersect pts (a1, b1, c1) (a2, b2, c2)
        then bad := Some ((a1, b1, c1), (a2, b2, c2))
      end
    done
  done;
  (!shared, !bad)

(* corner-sharing pairs examined over one run of the property below *)
let shared_corner_pairs = ref 0

let prop_shared_corner_disjoint =
  QCheck.Test.make ~name:"corner-sharing accepted triangles never intersect"
    ~count:100
    (QCheck.make ~print:print_instance gen_instance)
    (fun (seed, n, radius, drop) ->
      let pts, g = thinned_instance (Int64.of_int seed) n radius drop in
      let k, bad = corner_sharing_pairs g pts ~radius in
      shared_corner_pairs := !shared_corner_pairs + k;
      Option.is_none bad)

(* The property holds vacuously on instances without corner-sharing
   pairs, so a run must examine some. *)
let test_shared_corner_disjoint =
  let name, speed, run =
    QCheck_alcotest.to_alcotest prop_shared_corner_disjoint
  in
  ( name,
    speed,
    fun () ->
      shared_corner_pairs := 0;
      run ();
      check "corner-sharing pairs examined" true (!shared_corner_pairs > 0) )

(* The same lemma on the paper's setting, where both planarizations
   ([Ldel.build]'s and the protocol's removal round) skip these pairs:
   connected uniform deployments at the density of n = 500 on a
   200 x 200 square, accepted triangles of the UDG and of the ICDS. *)
let test_shared_corner_disjoint_deployments () =
  let shared = ref 0 in
  List.iter
    (fun n ->
      let side = 200. *. sqrt (float_of_int n /. 500.) in
      List.iter
        (fun radius ->
          for seed = 1 to 3 do
            let pts, udg =
              random_instance (Int64.of_int ((1000 * n) + seed)) n side radius
            in
            let icds = (Core.Shard.pipeline pts ~radius).Core.Shard.icds in
            List.iter
              (fun (name, g) ->
                match corner_sharing_pairs g pts ~radius with
                | k, None -> shared := !shared + k
                | _, Some ((a1, b1, c1), (a2, b2, c2)) ->
                  Alcotest.failf
                    "%s n=%d R=%g seed=%d: (%d,%d,%d) and (%d,%d,%d) share a \
                     corner and intersect"
                    name n radius seed a1 b1 c1 a2 b2 c2)
              [ ("UDG", udg); ("ICDS", icds) ]
          done)
        [ 25.; 40.; 60. ])
    [ 50; 200; 500 ];
  check "corner-sharing pairs examined" true (!shared > 0)

(* ------------------------------------------------------------------ *)
(* A PLDel crossing that Algorithm 3 cannot see                         *)
(* ------------------------------------------------------------------ *)

(* Six nodes at R = 0.92101761919298597 where PLDel of the UDG is not
   planar: the Gabriel edge 1-5 properly crosses edges 2-3 and 0-3 of
   the accepted triangle (0, 2, 3).  Node 1 lies inside that
   triangle's circumcircle but neighbours none of its corners, and
   Algorithm 3 only compares triangle pairs.  A known defect (see
   ROADMAP item 3); the checks below pin the instance and what must
   hold on it meanwhile. *)
let crossing_fixture =
  [|
    P.make 1.2094609916366623 0.097412031229010321;
    P.make 0.24804720534724464 0.16414256121981685;
    P.make 1.1901106823630705 0.15803412673988804;
    P.make 0.88746146707346318 0.88671174912661221;
    P.make 0.01834968308124927 0.57801827887892065;
    P.make 1.0941303098594934 0.43992861250037241;
  |]

let crossing_radius = 0.92101761919298597

let sorted_triples l =
  List.sort compare
    (List.map
       (fun (a, b, c) ->
         match List.sort compare [ a; b; c ] with
         | [ a; b; c ] -> (a, b, c)
         | _ -> assert false)
       l)

let test_crossing_fixture () =
  let pts = crossing_fixture and radius = crossing_radius in
  let udg = Wireless.Udg.build pts ~radius in
  let l = Tgraph.ldel_build udg pts ~radius in
  check "1-5 is Gabriel" true (List.mem (1, 5) l.Tgraph.gabriel_edges);
  check "(0,2,3) kept" true (List.mem (0, 2, 3) l.Tgraph.kept_triangles);
  let crosses (p, q) (r, s) =
    Geometry.Segment.properly_intersect
      (Geometry.Segment.make pts.(p) pts.(q))
      (Geometry.Segment.make pts.(r) pts.(s))
  in
  check "1-5 crosses 2-3" true (crosses (1, 5) (2, 3));
  check "1-5 crosses 0-3" true (crosses (1, 5) (0, 3));
  check "PLDel(UDG) not planar here" false
    (Netgraph.Planarity.is_planar l.Tgraph.planar pts);
  (* the star kernel agrees with Bowyer–Watson at every node *)
  let nbrs = Netgraph.Csr.targets udg and off = Netgraph.Csr.offsets udg in
  let link = Array.make (Array.length nbrs) 0 and closed = Array.make 6 false in
  let sc = Delaunay.Star.scratch () in
  for u = 0 to 5 do
    let lo = off.(u) in
    let m =
      Delaunay.Star.link_into sc pts ~center:u ~nbrs ~lo ~hi:off.(u + 1) ~link
        ~closed
    in
    let last = if closed.(u) then m - 1 else m - 2 in
    let star =
      List.init (max 0 (last + 1)) (fun i ->
          (u, link.(lo + i), link.(lo + ((i + 1) mod m))))
    in
    check "star = Bowyer–Watson" true
      (sorted_triples star
      = sorted_triples (Core.Ldel.local_delaunay_triangles udg pts u))
  done;
  (* and the protocol still equals the centralized build *)
  let bb = Core.Backbone.build pts ~radius in
  let pr = Core.Protocol.run pts ~radius in
  let ldel =
    Tgraph.ldel_build
      bb.Core.Backbone.snap.Core.Shard.icds
      pts ~radius
  in
  check "triangles" true (pr.Core.Protocol.ldel_triangles = ldel.Tgraph.triangles);
  check "kept" true (pr.Core.Protocol.kept_triangles = ldel.Tgraph.kept_triangles);
  check "gabriel" true (pr.Core.Protocol.gabriel_edges = ldel.Tgraph.gabriel_edges);
  check "graphs" true
    (G.equal pr.Core.Protocol.ldel_graph bb.Core.Backbone.ldel_icds_g)

let suites =
  [
    ( "core.ldel",
      [
        Alcotest.test_case "local triangles (triangle)" `Quick
          test_local_triangles_triangle;
        Alcotest.test_case "neighborhood view equivalence" `Quick
          test_local_triangles_from_neighborhood_equivalence;
        Alcotest.test_case "triangle fits" `Quick test_triangle_fits;
        Alcotest.test_case "intersection cases" `Quick
          test_triangles_intersect_cases;
        QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
        Alcotest.test_case "circumcircle contains" `Quick
          test_circumcircle_contains;
        Alcotest.test_case "GG ⊆ LDel" `Quick test_ldel_contains_gabriel;
        Alcotest.test_case "UDel ⊆ LDel1" `Quick test_ldel_contains_udel;
        Alcotest.test_case "PLDel planar + connected" `Quick
          test_pldel_planar_and_connected;
        Alcotest.test_case "thickness-2 edge bound" `Quick
          test_ldel1_thickness_two_edge_bound;
        Alcotest.test_case "kept ⊆ accepted" `Quick test_kept_subset_accepted;
        Alcotest.test_case "LDel on ICDS" `Quick test_ldel_on_icds;
        Alcotest.test_case "degenerate inputs" `Quick test_degenerate_inputs;
        Alcotest.test_case "full visibility = Delaunay" `Quick
          test_dense_equals_udel_plus;
        QCheck_alcotest.to_alcotest prop_planarize_matches_oracle;
        Alcotest.test_case "Algorithm 3 removals = oracle" `Quick
          test_planarize_removes_like_oracle;
        test_shared_corner_disjoint;
        Alcotest.test_case "shared corner: deployments, UDG and ICDS" `Quick
          test_shared_corner_disjoint_deployments;
        Alcotest.test_case "PLDel crossing fixture" `Quick
          test_crossing_fixture;
        QCheck_alcotest.to_alcotest prop_packed_matches_list_builder;
      ] );
  ]

(* Sharded CSR-native construction: the one-tile serial build
   ([Tiles 1], and the stage kernels [Mis.compute] / [Connectors.find]
   / [Ldel.build] run with one tile) is bit-identical to every other
   tiling and job count. *)

module Csr = Netgraph.Csr
module Pool = Netgraph.Pool

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let edge_list = Alcotest.(check (list (pair int int)))

(* a reproducible connected-ish deployment *)
let deployment seed n side radius =
  let rng = Wireless.Rand.create seed in
  let pts = Wireless.Deploy.uniform rng ~n ~side in
  (pts, Wireless.Udg.build pts ~radius)

(* split node ids into [k] tiles by spatial cell — the partition the
   pipeline itself uses; correctness must hold for ANY partition, so
   some tests below use a round-robin split instead *)
let spatial_tiles pts k =
  let side = 200. in
  let grid = Wireless.Cellgrid.create ~cell_size:(side /. float_of_int k) pts in
  Array.init (Wireless.Cellgrid.cells grid) (Wireless.Cellgrid.nodes_of grid)

let round_robin_tiles n k =
  let tiles = Array.make k [] in
  for u = n - 1 downto 0 do
    tiles.(u mod k) <- u :: tiles.(u mod k)
  done;
  Array.map Array.of_list tiles

let with_jobs jobs f =
  if jobs = 1 then f None else Pool.with_pool ~jobs (fun p -> f (Some p))

(* --- UDG ------------------------------------------------------------ *)

let test_udg_csr_identity () =
  List.iter
    (fun jobs ->
      let pts, g = deployment 11L 300 200. 25. in
      let want = Csr.edges g in
      with_jobs jobs (fun pool ->
          let csr = Wireless.Udg.build ?pool pts ~radius:25. in
          edge_list
            (Printf.sprintf "udg edges jobs=%d" jobs)
            want (Csr.edges csr)))
    [ 1; 2; 4 ]

let test_udg_csr_tiny () =
  let csr = Wireless.Udg.build [||] ~radius:1. in
  checki "empty nodes" 0 (Csr.node_count csr);
  let csr = Wireless.Udg.build [| { Geometry.Point.x = 0.; y = 0. } |] ~radius:1. in
  checki "single node" 1 (Csr.node_count csr);
  checki "single node edges" 0 (Csr.edge_count csr)

(* The kernel against the definition: every pair at [P.dist <= radius],
   found by an O(n^2) scan, on inputs aimed at the grid's edges. *)
let brute_udg pts radius =
  let n = Array.length pts in
  let acc = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      if Geometry.Point.dist pts.(u) pts.(v) <= radius then
        acc := (u, v) :: !acc
    done
  done;
  !acc

let pt x y = { Geometry.Point.x; y }

let udg_oracle_cases =
  (* 3-4-5 offsets: many pairs at exactly R = 5 *)
  let lattice =
    Array.init 169 (fun i ->
        pt (float_of_int (i mod 13)) (float_of_int (i / 13)))
  in
  let rng = Wireless.Rand.create 77L in
  let uniform n side = Wireless.Deploy.uniform rng ~n ~side in
  let shift dx dy =
    Array.map (fun (p : Geometry.Point.t) -> pt (p.x +. dx) (p.y +. dy))
  in
  [
    ("exact distance R", lattice, 5.);
    ( "cell boundaries",
      Array.map (fun (p : Geometry.Point.t) -> pt (5. *. p.x) (5. *. p.y))
        lattice,
      5. );
    ( "duplicates",
      (let base = uniform 40 60. in
       Array.init 120 (fun i -> base.(i mod 40))),
      9. );
    ( "collinear rows",
      Array.init 90 (fun i ->
          pt (float_of_int (i mod 30) *. 2.5) (float_of_int (i / 30) *. 10.)),
      7.5 );
    ("negative coordinates", shift (-1000.) (-750.) (uniform 200 120.), 15.);
    ("one cell", uniform 60 4., 10.);
    ("n=0", [||], 1.);
    ("n=1", [| pt 3. 4. |], 1.);
    ("n=2 at R", [| pt 0. 0.; pt 3. 4. |], 5.);
    ("n=2 beyond R", [| pt 0. 0.; pt 3. 4.000001 |], 5.);
    ("uniform", uniform 400 200., 18.);
  ]

let test_udg_kernel_oracle () =
  List.iter
    (fun (name, pts, radius) ->
      let want = brute_udg pts radius in
      List.iter
        (fun jobs ->
          with_jobs jobs (fun pool ->
              edge_list
                (Printf.sprintf "%s jobs=%d" name jobs)
                want
                (Csr.edges (Wireless.Udg.build ?pool pts ~radius))))
        [ 1; 2; 4 ])
    udg_oracle_cases

(* Wide, sparse spans: a radius-sided grid over these boxes would need
   ~10^11 cells.  Both are valid disconnected deployments. *)
let wide_span_fixtures () =
  let rng = Wireless.Rand.create 91L in
  let cluster d =
    Array.map
      (fun (p : Geometry.Point.t) -> pt (p.x +. d) (p.y +. d))
      (Wireless.Deploy.uniform rng ~n:60 ~side:8.)
  in
  [
    ("two clusters 10^6 apart", Array.append (cluster 0.) (cluster 1e6), 2.);
    ( "1000 nodes over 10^6 square",
      Wireless.Deploy.uniform rng ~n:1000 ~side:1e6,
      1. );
  ]

let test_wide_span () =
  (* the cap widens only grids that exceed it: a dense deployment
     keeps exactly the radius grid *)
  let pts, _ = deployment 92L 2000 450. 25. in
  let g = Wireless.Cellgrid.create ~max_cells:8064 ~cell_size:25. pts in
  check "dense grid unchanged" true (Float.equal g.Wireless.Cellgrid.cell 25.);
  List.iter
    (fun (name, pts, radius) ->
      let cap = (4 * Array.length pts) + 64 in
      let g = Wireless.Cellgrid.create ~max_cells:cap ~cell_size:radius pts in
      check (name ^ " grid capped") true
        (Wireless.Cellgrid.cells g <= cap && g.Wireless.Cellgrid.cell >= radius);
      let want = brute_udg pts radius in
      edge_list (name ^ " build") want
        (Csr.edges (Wireless.Udg.build pts ~radius));
      List.iter
        (fun (partition, jobs) ->
          let cfg =
            {
              Core.Backbone.Config.default with
              Core.Backbone.Config.radius;
              partition;
              jobs;
            }
          in
          let s = Core.Backbone.snapshot cfg pts in
          edge_list (name ^ " snapshot udg") want (Csr.edges s.Core.Shard.udg);
          let t = Core.Backbone.run cfg pts in
          edge_list (name ^ " run udg") want (Csr.edges t.Core.Backbone.udg);
          edge_list (name ^ " run pldel")
            (Csr.edges s.Core.Shard.pldel)
            (Csr.edges t.Core.Backbone.ldel_icds_g))
        [ (Core.Backbone.Config.Auto, 1); (Core.Backbone.Config.Tiles 2, 2) ])
    (wide_span_fixtures ())

(* --- MIS ------------------------------------------------------------ *)

let test_mis_csr_identity () =
  let pts, g = deployment 12L 400 200. 22. in
  let want = Core.Mis.compute g in
  List.iter
    (fun jobs ->
      List.iter
        (fun tiles ->
          with_jobs jobs (fun pool ->
              let got = Core.Mis.compute ?pool ?owners:tiles g in
              check
                (Printf.sprintf "mis jobs=%d" jobs)
                true (want = got)))
        [
          None;
          Some (spatial_tiles pts 3);
          Some (round_robin_tiles (Array.length pts) 7);
        ])
    [ 1; 2; 4 ]

let test_mis_csr_priority () =
  let _, g = deployment 13L 200 200. 30. in
  let priority u = -u in
  let want = Core.Mis.compute g ~priority in
  check "priority changes the clustering" true (want <> Core.Mis.compute g);
  with_jobs 2 (fun pool ->
      let got =
        Core.Mis.compute ?pool
          ~owners:(round_robin_tiles (Csr.node_count g) 5)
          ~priority g
      in
      check "priority identical across tiles" true (want = got))

(* --- Connectors ----------------------------------------------------- *)

let test_connectors_csr_identity () =
  let pts, g = deployment 14L 400 200. 22. in
  let roles = Core.Mis.compute g in
  let want = Core.Connectors.find g roles in
  List.iter
    (fun jobs ->
      List.iter
        (fun tiles ->
          with_jobs jobs (fun pool ->
              let got =
                Core.Connectors.find ?pool ?owners:tiles g roles
              in
              let tag s = Printf.sprintf "%s jobs=%d" s jobs in
              check (tag "connector") true
                (want.Core.Connectors.connector = got.Core.Connectors.connector);
              edge_list (tag "cds_edges")
                (Csr.edges want.Core.Connectors.cds)
                (Csr.edges got.Core.Connectors.cds)))
        [
          None;
          Some (spatial_tiles pts 4);
          Some (round_robin_tiles (Array.length pts) 5);
        ])
    [ 1; 2; 4 ]

(* The elections as they ran before the dominator index: every
   two-hop dominator found by walking full UDG rows, adjacency by
   binary search, the gate as a common-dominatee list per target.
   Kept as the reference the indexed kernel must equal.  It also lists
   every dominator pair it processed with the number of connectors
   elected for it, so the per-pair bounds can be checked. *)
module Connectors_oracle = struct
  module C = Netgraph.Csr
  module Mis = Core.Mis

  (* the election outcome in list form *)
  type result = { connector : bool array; cds_edges : (int * int) list }

  type t = {
    result : result;
    two_hop : ((int * int) * int) list;
        (* dominator pairs at hop distance 2, each with its connector
           count, lexicographic *)
    three_hop : ((int * int) * int) list;
        (* ordered pairs processed by the 3-hop stage, the same way *)
  }

  let ordered_edge u v = (min u v, max u v)

  let elect_by adjacent candidates =
    List.filter
      (fun w ->
        List.for_all (fun x -> x = w || (not (adjacent w x)) || w < x) candidates)
      candidates

  let find g roles =
    let n = C.node_count g in
    let connector = Array.make n false in
    let elect_csr = elect_by (C.mem_edge g) in
    let common_dominatees u v =
      let acc = ref [] in
      C.iter_neighbors g u (fun w ->
          if roles.(w) = Mis.Dominatee && C.mem_edge g w v then
            acc := w :: !acc);
      List.rev !acc
    in
    let mark = Array.make n (-1) and mstamp = ref 0 in
    let seen = Array.make n (-1) and sstamp = ref 0 in
    let gmark = Array.make n (-1) and gstamp = ref 0 in
    let gval = Array.make n false in
    let edges = ref [] and two = ref [] and three = ref [] in
    let two_hop_at u =
      incr mstamp;
      let s = !mstamp in
      C.iter_neighbors g u (fun w ->
          if roles.(w) = Mis.Dominatee then
            C.iter_neighbors g w (fun v ->
                if v > u && roles.(v) = Mis.Dominator && mark.(v) <> s then begin
                  mark.(v) <- s;
                  let won = elect_csr (common_dominatees u v) in
                  two := ((u, v), List.length won) :: !two;
                  List.iter
                    (fun w' ->
                      connector.(w') <- true;
                      edges := ordered_edge u w' :: ordered_edge w' v :: !edges)
                    won
                end))
    in
    let three_hop_at u =
      incr gstamp;
      let gs = !gstamp in
      let gate_open v =
        if gmark.(v) <> gs then begin
          gmark.(v) <- gs;
          gval.(v) <- common_dominatees u v = []
        end;
        gval.(v)
      in
      let cands_by_v = Hashtbl.create 16 in
      C.iter_neighbors g u (fun w ->
          if roles.(w) = Mis.Dominatee then begin
            incr sstamp;
            let s = !sstamp in
            C.iter_neighbors g w (fun y ->
                C.iter_neighbors g y (fun v ->
                    if
                      v <> w && v <> u
                      && roles.(v) = Mis.Dominator
                      && seen.(v) <> s
                      && not (C.mem_edge g w v)
                    then begin
                      seen.(v) <- s;
                      if gate_open v then
                        Hashtbl.replace cands_by_v v
                          (w
                          :: Option.value ~default:[]
                               (Hashtbl.find_opt cands_by_v v))
                    end))
          end);
      Netgraph.Graph.sorted_tbl_iter Int.compare
        (fun v cands ->
          let first = elect_csr cands in
          let second_cands =
            List.sort_uniq compare
              (List.concat_map
                 (fun w ->
                   C.fold_neighbors g w
                     (fun acc x ->
                       if
                         roles.(x) = Mis.Dominatee
                         && C.mem_edge g x v
                         && x <> w
                       then x :: acc
                       else acc)
                     [])
                 first)
          in
          let second = elect_csr second_cands in
          three := ((u, v), List.length first + List.length second) :: !three;
          List.iter
            (fun w ->
              connector.(w) <- true;
              edges := ordered_edge u w :: !edges)
            first;
          List.iter
            (fun x ->
              connector.(x) <- true;
              edges := ordered_edge x v :: !edges;
              List.iter
                (fun w ->
                  if C.mem_edge g w x then edges := ordered_edge w x :: !edges)
                first)
            second)
        cands_by_v
    in
    for u = 0 to n - 1 do
      if roles.(u) = Mis.Dominator then begin
        two_hop_at u;
        three_hop_at u
      end
    done;
    {
      result =
        { connector; cds_edges = List.sort_uniq compare !edges };
      two_hop = List.sort compare !two;
      three_hop = List.sort compare !three;
    }

  (* the kernel's sealed output equals the oracle's *)
  let equal o (got : Core.Connectors.t) =
    o.result.connector = got.Core.Connectors.connector
    && o.result.cds_edges = C.edges got.Core.Connectors.cds

  (* Bounds: at most 2 connectors per two-hop pair (the lune
     argument), at most 25 per three-hop ordered pair *)
  let pair_bounds_hold o =
    List.for_all
      (fun (_, c) -> c <= Core.Bounds.max_connectors_two_hop_pair)
      o.two_hop
    && List.for_all
         (fun (_, c) -> c <= Core.Bounds.max_connectors_three_hop_pair)
         o.three_hop
end

let test_connectors_oracle () =
  List.iter
    (fun (seed, radius) ->
      let n = 500 in
      let rng = Wireless.Rand.create seed in
      let pts = Wireless.Deploy.uniform rng ~n ~side:200. in
      let csr = Wireless.Udg.build pts ~radius in
      let roles = Core.Mis.compute csr in
      let want = Connectors_oracle.find csr roles in
      check
        (Printf.sprintf "seed=%Ld R=%g has three-hop pairs" seed radius)
        true
        (want.Connectors_oracle.three_hop <> []);
      check
        (Printf.sprintf "seed=%Ld R=%g connectors per pair within bounds" seed
           radius)
        true
        (Connectors_oracle.pair_bounds_hold want);
      List.iter
        (fun (name, tiles) ->
          let owners = Core.Shard.tiling ?tiles pts ~radius in
          List.iter
            (fun jobs ->
              with_jobs jobs (fun pool ->
                  let got = Core.Connectors.find ?pool ~owners csr roles in
                  check
                    (Printf.sprintf "seed=%Ld R=%g %s jobs=%d" seed radius name
                       jobs)
                    true
                    (Connectors_oracle.equal want got)))
            [ 1; 2 ])
        [ ("Tiles 1", Some 1); ("Tiles 2", Some 2); ("Tiles 3", Some 3); ("Auto", None) ])
    [ (51L, 14.); (52L, 14.); (53L, 14.); (51L, 40.); (52L, 40.); (53L, 40.) ]

(* the flat kernel against the oracle on one input, every listed
   tiling and jobs 1 and 2 *)
let connectors_match pts ~radius =
  let csr = Wireless.Udg.build pts ~radius in
  let roles = Core.Mis.compute csr in
  let want = Connectors_oracle.find csr roles in
  Connectors_oracle.pair_bounds_hold want
  && List.for_all
       (fun tiles ->
         let owners = Core.Shard.tiling ?tiles pts ~radius in
         List.for_all
           (fun jobs ->
             with_jobs jobs (fun pool ->
                 Connectors_oracle.equal want
                   (Core.Connectors.find ?pool ~owners csr roles)))
           [ 1; 2 ])
       [ Some 1; Some 2; Some 3; None ]

let test_connectors_hostile () =
  let p x y = Geometry.Point.make x y in
  let cases =
    [
      ("n=0", [||], 10.);
      ("n=1", [| p 3. 4. |], 10.);
      ("n=2 linked", [| p 0. 0.; p 5. 0. |], 10.);
      ("n=2 apart", [| p 0. 0.; p 50. 0. |], 10.);
      ( "duplicate points",
        Array.init 40 (fun i ->
            p (float_of_int (i mod 7 * 6)) (float_of_int (i mod 5 * 6))),
        10. );
      ( "collinear chain",
        Array.init 30 (fun i -> p (float_of_int i *. 9.) 0.),
        10. );
      ( "two clusters",
        Array.init 60 (fun i ->
            let base = if i < 30 then 0. else 500. in
            p
              (base +. float_of_int (i mod 6 * 7))
              (float_of_int (i mod 30 / 6 * 7))),
        10. );
      ( "all isolated",
        Array.init 25 (fun i ->
            p (float_of_int (i mod 5) *. 30.) (float_of_int (i / 5) *. 30.)),
        10. );
    ]
  in
  List.iter
    (fun (name, pts, radius) ->
      check name true (connectors_match pts ~radius))
    cases

let prop_connectors_oracle =
  QCheck.Test.make ~name:"flat connectors = oracle (any n, R, tiling, jobs)"
    ~count:60
    QCheck.(pair (int_bound 250) (pair small_nat (int_bound 3)))
    (fun (n, (seed, rk)) ->
      let radius = [| 8.; 14.; 25.; 45. |].(rk) in
      let rng = Wireless.Rand.create (Int64.of_int (seed + 1)) in
      let pts = Wireless.Deploy.uniform rng ~n ~side:150. in
      connectors_match pts ~radius)

(* --- LDel ----------------------------------------------------------- *)

let tri_list = Alcotest.(check (list (triple int int int)))

let test_ldel_csr_identity () =
  let pts, g = deployment 15L 300 200. 28. in
  let want = Tgraph.ldel_build g pts ~radius:28. in
  List.iter
    (fun jobs ->
      List.iter
        (fun tiles ->
          with_jobs jobs (fun pool ->
              let parts =
                Tgraph.ldel g
                  (Core.Ldel.build ?pool ?owners:tiles g pts ~radius:28.)
              in
              let tag s = Printf.sprintf "%s jobs=%d" s jobs in
              edge_list (tag "gabriel") want.Tgraph.gabriel_edges
                parts.Tgraph.gabriel_edges;
              tri_list (tag "triangles") want.Tgraph.triangles
                parts.Tgraph.triangles;
              tri_list (tag "kept") want.Tgraph.kept_triangles
                parts.Tgraph.kept_triangles;
              check (tag "ldel1 graph") true
                (Csr.equal want.Tgraph.ldel1 parts.Tgraph.ldel1);
              check (tag "planar graph") true
                (Csr.equal want.Tgraph.planar parts.Tgraph.planar)))
        [ None; Some (spatial_tiles pts 3) ])
    [ 1; 2; 4 ]

(* the induced backbone graph has isolated nodes and sparse rows — the
   other shape [Ldel.build] must tile *)
let test_ldel_csr_on_backbone () =
  let pts, _ = deployment 16L 250 200. 30. in
  let snap = Core.Shard.pipeline pts ~radius:30. in
  let icds = snap.Core.Shard.icds in
  let want = Tgraph.ldel_build icds pts ~radius:30. in
  with_jobs 2 @@ fun pool ->
  let parts =
    Tgraph.ldel icds
      (Core.Ldel.build ?pool ~owners:(spatial_tiles pts 3) icds pts
         ~radius:30.)
  in
  edge_list "gabriel" want.Tgraph.gabriel_edges parts.Tgraph.gabriel_edges;
  tri_list "triangles" want.Tgraph.triangles parts.Tgraph.triangles;
  tri_list "kept" want.Tgraph.kept_triangles parts.Tgraph.kept_triangles

(* The packed build against the list builder it replaced
   ([Test_ldel.Ldel_oracle]), on the UDG and on the induced ICDS (whose
   dominatees are isolated), for every listed tiling and jobs 1 and 2;
   an input either builds the same lists or raises the same
   exception. *)
let ldel_match pts ~radius =
  let udg = Wireless.Udg.build pts ~radius in
  let roles = Core.Mis.compute udg in
  let conn = Core.Connectors.find udg roles in
  let bb u =
    roles.(u) = Core.Mis.Dominator || conn.Core.Connectors.connector.(u)
  in
  let icds = Csr.filter udg (fun u v -> bb u && bb v) in
  let outcome f = match f () with r -> Ok r | exception e -> Error e in
  List.for_all
    (fun csr ->
      let want =
        outcome (fun () -> Test_ldel.Ldel_oracle.build csr pts ~radius)
      in
      List.for_all
        (fun tiles ->
          let owners = Core.Shard.tiling ?tiles pts ~radius in
          List.for_all
            (fun jobs ->
              with_jobs jobs (fun pool ->
                  want
                  = outcome (fun () ->
                        Tgraph.ldel_lists
                          (Tgraph.ldel csr
                             (Core.Ldel.build ?pool ~owners csr pts ~radius)))))
            [ 1; 2 ])
        [ Some 1; Some 2; Some 3; None ])
    [ udg; icds ]

let test_ldel_hostile () =
  let p x y = Geometry.Point.make x y in
  let cases =
    [
      ("n=0", [||], 10.);
      ("n=1", [| p 3. 4. |], 10.);
      ("n=2 linked", [| p 0. 0.; p 5. 0. |], 10.);
      ("n=2 apart", [| p 0. 0.; p 50. 0. |], 10.);
      ( "duplicate points",
        Array.init 40 (fun i ->
            p (float_of_int (i mod 7 * 6)) (float_of_int (i mod 5 * 6))),
        10. );
      ( "collinear chain",
        Array.init 30 (fun i -> p (float_of_int i *. 9.) 0.),
        10. );
      ( "all isolated",
        Array.init 25 (fun i ->
            p (float_of_int (i mod 5) *. 30.) (float_of_int (i / 5) *. 30.)),
        10. );
      ( "uniform",
        Wireless.Deploy.uniform (Wireless.Rand.create 61L) ~n:300 ~side:150.,
        18. );
    ]
  in
  List.iter
    (fun (name, pts, radius) -> check name true (ldel_match pts ~radius))
    cases;
  (* the cases are not vacuous: duplicates raise, a chain has Gabriel
     edges and no triangle *)
  let dup = (fun (_, pts, _) -> pts) (List.nth cases 4) in
  let csr = Wireless.Udg.build dup ~radius:10. in
  check "duplicates raise" true
    (match Core.Ldel.build csr dup ~radius:10. with
    | _ -> false
    | exception Invalid_argument _ -> true);
  let chain = Array.init 30 (fun i -> p (float_of_int i *. 9.) 0.) in
  let csr = Wireless.Udg.build chain ~radius:10. in
  let parts =
    Tgraph.ldel csr (Core.Ldel.build csr chain ~radius:10.)
  in
  checki "chain gabriel" 29 (List.length parts.Tgraph.gabriel_edges);
  checki "chain triangles" 0 (List.length parts.Tgraph.triangles)

let prop_ldel_oracle =
  QCheck.Test.make ~name:"packed LDel = list builder (any n, R, tiling, jobs)"
    ~count:60
    QCheck.(pair (int_bound 250) (pair small_nat (int_bound 3)))
    (fun (n, (seed, rk)) ->
      let radius = [| 8.; 14.; 25.; 45. |].(rk) in
      let rng = Wireless.Rand.create (Int64.of_int (seed + 1)) in
      let pts = Wireless.Deploy.uniform rng ~n ~side:150. in
      ldel_match pts ~radius)

(* --- Rows ------------------------------------------------------------ *)

(* The undirected edge list [es] on [n] nodes as sorted, duplicate-free
   rows, sealed by [Csr.of_rows]: the tests' seal for edge lists. *)
let seal_edges ?points n es =
  let rows = Array.make n [] in
  List.iter
    (fun (u, v) ->
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v))
    es;
  let rows = Array.map (List.sort_uniq Int.compare) rows in
  let offsets = Array.make (n + 1) 0 in
  Array.iteri (fun u r -> offsets.(u + 1) <- offsets.(u) + List.length r) rows;
  let targets = Array.of_list (List.concat (Array.to_list rows)) in
  Csr.of_rows ?points ~offsets ~targets ()

let test_rows_seal () =
  let csr = seal_edges 5 [ (1, 2); (2, 1); (0, 4); (1, 2) ] in
  edge_list "dedup both orientations" [ (0, 4); (1, 2) ] (Csr.edges csr);
  edge_list "order irrelevant" (Csr.edges csr)
    (Csr.edges (seal_edges 5 [ (4, 0); (2, 1) ]));
  edge_list "adopted rows"
    [ (0, 1); (0, 2); (1, 2) ]
    (Csr.edges
       (Csr.of_rows ~offsets:[| 0; 2; 4; 6 |]
          ~targets:[| 1; 2; 0; 2; 0; 1 |] ()));
  let rejected name offsets targets =
    check name true
      (try
         ignore (Csr.of_rows ~offsets ~targets ());
         false
       with Invalid_argument _ -> true)
  in
  rejected "self-loop rejected" [| 0; 1; 2 |] [| 0; 0 |];
  rejected "out-of-range rejected" [| 0; 1; 2 |] [| 2; 0 |];
  rejected "unsorted row rejected" [| 0; 2; 3; 4 |] [| 2; 1; 0; 0 |];
  rejected "duplicate rejected" [| 0; 2; 4 |] [| 1; 1; 0; 0 |];
  rejected "offsets.(0) rejected" [| 1; 2; 2 |] [| 1; 0 |];
  rejected "short targets rejected" [| 0; 1; 3 |] [| 1; 0 |];
  (* sealed weights are [with_weights]'s floats, serial or pooled *)
  let pts, g = deployment 32L 300 200. 25. in
  let n = Array.length pts in
  let sealed = seal_edges ~points:pts n (Csr.edges g) in
  check "rows seal weights" true (sealed = Csr.with_weights g pts);
  check "rows seal power weights" true
    (Csr.with_weights ~beta:2.5 sealed pts = Csr.with_weights ~beta:2.5 g pts);
  Pool.with_pool ~jobs:3 (fun p ->
      let keep u v = (u + v) mod 3 <> 0 in
      let sub =
        seal_edges ~points:pts n
          (List.filter (fun (u, v) -> keep u v) (Csr.edges g))
      in
      check "pooled filter weights" true
        (Csr.filter ~pool:p ~points:pts g keep = sub))

(* The names the benchmark program under perfbench/ compiles against
   are the library's own functions, not second implementations. *)
let test_view_dispatch () =
  let pts, g = deployment 33L 200 200. 30. in
  check "View.of_graph is the identity" true (Netgraph.View.of_graph g == g);
  check "Graph.of_edges seals the same rows" true
    (Netgraph.Graph.equal (Netgraph.Graph.of_edges (Csr.node_count g) (Csr.edges g)) g);
  let pldel = (Core.Shard.pipeline pts ~radius:30.).Core.Shard.pldel in
  checki "crossing_count_v"
    (Netgraph.Planarity.crossing_count pldel pts)
    (Netgraph.Planarity.crossing_count_v pldel pts);
  check "Components.is_connected" true
    (Netgraph.Components.is_connected g = Csr.is_connected g)

(* --- Halo properties ------------------------------------------------ *)

(* induced sub-deployment over a sorted id set: the remap is monotone,
   so every smallest-id tie-break elects the same winners *)
let induce pts ids =
  let old_of = Array.of_list ids in
  let new_of = Hashtbl.create (Array.length old_of) in
  Array.iteri (fun i u -> Hashtbl.add new_of u i) old_of;
  (old_of, (fun u -> Hashtbl.find_opt new_of u),
   Array.map (fun u -> pts.(u)) old_of)

let halo_ids grid cell ~rings =
  let acc = ref [] in
  for r = 0 to rings do
    Wireless.Cellgrid.iter_ring_cells grid cell r (fun k ->
        Wireless.Cellgrid.iter_cell grid k (fun u -> acc := u :: !acc))
  done;
  List.sort_uniq Int.compare !acc

(* Connector elections are 2-local around the owning dominator: the
   serial algorithm ([Connectors_oracle], which lists the pairs it
   processes), re-run on just the halo (cells within Chebyshev 3 of
   the tile — 3 hops at cell = radius), reproduces exactly the pairs
   owned by the tile's dominators.  This is the property that
   makes per-tile sharding correct. *)
let test_connectors_halo () =
  let radius = 30. in
  let pts, g = deployment 31L 800 300. radius in
  let roles = Core.Mis.compute g in
  let full = Connectors_oracle.find g roles in
  let grid = Wireless.Cellgrid.create ~cell_size:radius pts in
  let n_cells = Wireless.Cellgrid.cells grid in
  List.iter
    (fun cell ->
      let cell = cell mod n_cells in
      let old_of, remap, sub_pts =
        induce pts (halo_ids grid cell ~rings:3)
      in
      let sub_g = Wireless.Udg.build sub_pts ~radius in
      let sub_roles = Array.map (fun u -> roles.(u)) old_of in
      let sub = Connectors_oracle.find sub_g sub_roles in
      let in_tile u = Wireless.Cellgrid.cell_of grid u = cell in
      (* tile-owned pairs of the full run, in halo coordinates *)
      let owned pairs =
        List.filter_map
          (fun ((u, v), _) ->
            if in_tile u then
              match (remap u, remap v) with
              | Some u', Some v' -> Some (u', v')
              | _ -> None (* unreachable: halo covers 3 hops *)
            else None)
          pairs
      in
      (* tile-owned pairs of the halo re-run *)
      let sub_owned pairs =
        List.filter_map
          (fun ((u', v'), _) ->
            if in_tile old_of.(u') then Some (u', v') else None)
          pairs
      in
      let tag s = Printf.sprintf "%s cell=%d" s cell in
      edge_list (tag "two-hop halo")
        (owned full.Connectors_oracle.two_hop)
        (sub_owned sub.Connectors_oracle.two_hop);
      edge_list (tag "three-hop halo")
        (owned full.Connectors_oracle.three_hop)
        (sub_owned sub.Connectors_oracle.three_hop))
    [ 0; 17; 23; 38 ]

(* LDel(1) is 2-local: a triangle needs its own corner neighborhoods
   (1 hop) plus the corners' local Delaunay votes (their 1-hop views),
   so a 2-ring halo reproduces every accepted triangle and Gabriel
   edge whose min corner lies in the tile.  (Planarization is global
   — [kept_triangles] is deliberately not compared.) *)
let test_ldel_halo () =
  let radius = 28. in
  let pts, g = deployment 34L 600 250. radius in
  let full = Tgraph.ldel_build g pts ~radius in
  let grid = Wireless.Cellgrid.create ~cell_size:radius pts in
  let n_cells = Wireless.Cellgrid.cells grid in
  List.iter
    (fun cell ->
      let cell = cell mod n_cells in
      let old_of, remap, sub_pts =
        induce pts (halo_ids grid cell ~rings:2)
      in
      let sub = Tgraph.ldel_build (Wireless.Udg.build sub_pts ~radius) sub_pts ~radius in
      let in_tile u = Wireless.Cellgrid.cell_of grid u = cell in
      let tag s = Printf.sprintf "%s cell=%d" s cell in
      edge_list (tag "gabriel halo")
        (List.filter_map
           (fun (u, v) ->
             if in_tile u then
               match (remap u, remap v) with
               | Some u', Some v' -> Some (u', v')
               | _ -> None
             else None)
           full.Tgraph.gabriel_edges)
        (List.filter
           (fun (u', _) -> in_tile old_of.(u'))
           sub.Tgraph.gabriel_edges);
      tri_list (tag "triangle halo")
        (List.filter_map
           (fun (a, b, c) ->
             if in_tile a then
               match (remap a, remap b, remap c) with
               | Some a', Some b', Some c' -> Some (a', b', c')
               | _ -> None
             else None)
           full.Tgraph.triangles)
        (List.filter
           (fun (a', _, _) -> in_tile old_of.(a'))
           sub.Tgraph.triangles))
    [ 0; 11; 29 ]

(* --- Full pipeline -------------------------------------------------- *)

(* CDS': the snapshot keeps no copy *)
let cds' (s : Core.Shard.snapshot) =
  Core.Shard.primed s.Core.Shard.roles s.Core.Shard.icds' s.Core.Shard.cds

let same_snapshot tag (a : Core.Shard.snapshot) (b : Core.Shard.snapshot) =
  let open Core.Shard in
  let edges name f = edge_list (tag ^ " " ^ name) (Csr.edges (f a)) (Csr.edges (f b)) in
  check (tag ^ " roles") true (a.roles = b.roles);
  check (tag ^ " backbone") true (a.backbone = b.backbone);
  edges "udg" (fun s -> s.udg);
  edges "cds" (fun s -> s.cds);
  edges "cds'" cds';
  edges "icds" (fun s -> s.icds);
  edges "icds'" (fun s -> s.icds');
  edges "pldel" (fun s -> s.pldel);
  edges "pldel'" (fun s -> s.pldel')

let same_backbone tag (a : Core.Backbone.t) (b : Core.Backbone.t) =
  same_snapshot tag a.Core.Backbone.snap b.Core.Backbone.snap;
  check (tag ^ " udg") true (Csr.equal a.Core.Backbone.udg b.Core.Backbone.udg);
  check (tag ^ " planar") true
    (Csr.equal a.Core.Backbone.ldel_icds_g b.Core.Backbone.ldel_icds_g)

(* serial ([Tiles 1]) vs sharded [Backbone.run]: identical records for
   jobs 1/2/4 and a sweep of tile counts *)
let test_pipeline_identity () =
  let rng = Wireless.Rand.create 21L in
  let pts = Wireless.Deploy.uniform rng ~n:600 ~side:300. in
  let serial =
    Core.Backbone.run
      {
        Core.Backbone.Config.default with
        Core.Backbone.Config.radius = 30.;
        partition = Core.Backbone.Config.Tiles 1;
        jobs = 1;
      }
      pts
  in
  List.iter
    (fun jobs ->
      List.iter
        (fun k ->
          let sharded =
            Core.Backbone.run
              {
                Core.Backbone.Config.default with
                Core.Backbone.Config.radius = 30.;
                partition = Core.Backbone.Config.Tiles k;
                jobs;
              }
              pts
          in
          same_backbone (Printf.sprintf "tiles=%d jobs=%d" k jobs) serial
            sharded)
        [ 2; 3; 5 ])
    [ 1; 2; 4 ]

(* [Backbone.snapshot] is the snapshot [run] keeps, and [run]'s two
   graphs are the snapshot's own, not copies *)
let test_snapshot_matches_run () =
  let rng = Wireless.Rand.create 22L in
  let pts = Wireless.Deploy.uniform rng ~n:500 ~side:300. in
  let cfg =
    {
      Core.Backbone.Config.default with
      Core.Backbone.Config.radius = 32.;
      partition = Core.Backbone.Config.Tiles 3;
      jobs = 2;
    }
  in
  let t = Core.Backbone.run cfg pts in
  let s = Core.Backbone.snapshot cfg pts in
  same_snapshot "run" t.Core.Backbone.snap s;
  check "udg is snap.udg" true
    (t.Core.Backbone.udg == t.Core.Backbone.snap.Core.Shard.udg);
  check "ldel_icds_g is snap.pldel" true
    (t.Core.Backbone.ldel_icds_g == t.Core.Backbone.snap.Core.Shard.pldel)

(* quasi radio: the UDG stage is serial (RNG stream) but the sharded
   stages must still reproduce the one-tile build on it *)
let test_pipeline_quasi () =
  let rng = Wireless.Rand.create 23L in
  let pts = Wireless.Deploy.uniform rng ~n:300 ~side:250. in
  let cfg partition =
    {
      Core.Backbone.Config.default with
      Core.Backbone.Config.radius = 35.;
      radio = Core.Backbone.Config.Quasi { r_min = 25.; seed = 99L };
      partition;
    }
  in
  let serial = Core.Backbone.run (cfg (Core.Backbone.Config.Tiles 1)) pts in
  let sharded = Core.Backbone.run (cfg (Core.Backbone.Config.Tiles 3)) pts in
  same_backbone "quasi" serial sharded

(* The edge-list assembly the row filters and arc marks replaced: the
   oracle every sealed structure of the snapshot must equal.  Its
   inputs are the oracles' own, never the snapshot's parts: connector
   lists from [Connectors_oracle], and LDel lists from the list
   builder run on the ICDS it seals itself. *)
module Assemble_oracle = struct
  module Mis = Core.Mis
  module Connectors = Core.Connectors
  module Ldel = Core.Ldel

  let run points ~radius udg roles (connectors : Connectors_oracle.result) =
    let n = Array.length points in
    let backbone =
      Array.init n (fun u ->
          roles.(u) = Mis.Dominator || connectors.Connectors_oracle.connector.(u))
    in
    (* each dominatee to each dominator it hears *)
    let links =
      List.concat
        (List.init n (fun u ->
             if roles.(u) = Mis.Dominatee then
               List.filter_map
                 (fun d -> if roles.(d) = Mis.Dominator then Some (u, d) else None)
                 (Csr.neighbors udg u)
             else []))
    in
    let cds_edges = connectors.Connectors_oracle.cds_edges in
    let icds_edges =
      List.filter (fun (u, v) -> backbone.(u) && backbone.(v)) (Csr.edges udg)
    in
    let icds = seal_edges n icds_edges in
    let gabriel, _, kept = Test_ldel.Ldel_oracle.build icds points ~radius in
    let pldel_edges =
      gabriel @ List.concat_map (fun (a, b, c) -> [ (a, b); (b, c); (a, c) ]) kept
    in
    ( backbone,
      seal_edges n cds_edges,
      seal_edges n (cds_edges @ links),
      icds,
      seal_edges n (icds_edges @ links),
      seal_edges ~points n pldel_edges,
      seal_edges ~points n (pldel_edges @ links) )
end

let subgraph = Tgraph.is_subgraph

let check_assembly tag (s : Core.Shard.snapshot) =
  let open Core.Shard in
  let backbone, cds, cds', icds, icds', pldel, pldel' =
    Assemble_oracle.run s.points ~radius:s.radius s.udg s.roles
      (Connectors_oracle.find s.udg s.roles).Connectors_oracle.result
  in
  check (tag ^ " backbone") true (backbone = s.backbone);
  check (tag ^ " cds") true (cds = s.cds);
  check (tag ^ " cds'") true (cds' = primed s.roles s.icds' s.cds);
  check (tag ^ " icds") true (icds = s.icds);
  check (tag ^ " icds'") true (icds' = s.icds');
  check (tag ^ " pldel") true (pldel = s.pldel);
  check (tag ^ " pldel'") true (pldel' = s.pldel');
  (* what makes each filter exact *)
  check (tag ^ " cds in udg") true (subgraph s.cds s.udg);
  check (tag ^ " pldel in icds") true (subgraph s.pldel s.icds);
  check (tag ^ " icds in udg") true (subgraph s.icds s.udg)

let test_assembly_oracle () =
  List.iter
    (fun seed ->
      let rng = Wireless.Rand.create seed in
      let pts = Wireless.Deploy.uniform rng ~n:400 ~side:220. in
      List.iter
        (fun radius ->
          List.iter
            (fun tiles ->
              List.iter
                (fun jobs ->
                  check_assembly
                    (Printf.sprintf "seed=%Ld R=%g tiles=%s jobs=%d" seed
                       radius
                       (match tiles with
                       | Some k -> string_of_int k
                       | None -> "auto")
                       jobs)
                    (Core.Shard.pipeline ~jobs ?tiles pts ~radius))
                [ 1; 2 ])
            [ Some 1; Some 2; Some 3; None ])
        [ 14.; 40. ])
    [ 31L; 32L; 33L ];
  (* the quasi radio's UDG: links between r_min and r_max are random,
     so a geometric triangle need not close in it *)
  let rng = Wireless.Rand.create 34L in
  let pts = Wireless.Deploy.uniform rng ~n:400 ~side:220. in
  let udg =
    (Wireless.Udg.build_quasi (Wireless.Rand.create 5L) pts ~r_min:22.
         ~r_max:34.)
  in
  List.iter
    (fun (tiles, jobs) ->
      check_assembly
        (Printf.sprintf "quasi tiles=%d jobs=%d" tiles jobs)
        (Core.Shard.pipeline ~jobs ~tiles ~udg pts ~radius:34.))
    [ (1, 1); (3, 2) ]

(* the stage spans cover the build: the connector elections split
   into index, elections and the CDS seal, [shard.ldel] opens with the
   [icds'] and [icds] filters, and [shard.assemble] splits into one
   child per structure it seals *)
let test_stage_spans () =
  let rng = Wireless.Rand.create 35L in
  let pts = Wireless.Deploy.uniform rng ~n:300 ~side:200. in
  Obs.reset ();
  Obs.set_enabled true;
  let paths =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () ->
        ignore (Core.Shard.pipeline ~jobs:2 ~tiles:2 pts ~radius:25.);
        List.map
          (fun (sp : Obs.Snapshot.span_stats) -> sp.Obs.Snapshot.path)
          (Obs.Snapshot.capture ()).Obs.Snapshot.spans)
  in
  Obs.reset ();
  let children prefix =
    List.filter_map
      (fun p ->
        let lp = String.length prefix in
        if
          String.length p > lp
          && String.sub p 0 lp = prefix
          && not (String.contains (String.sub p lp (String.length p - lp)) '/')
        then Some (String.sub p lp (String.length p - lp))
        else None)
      paths
  in
  Alcotest.(check (list string))
    "stages"
    [ "shard.assemble"; "shard.connectors"; "shard.ldel"; "shard.mis";
      "shard.tiling"; "shard.udg" ]
    (children "shard/");
  Alcotest.(check (list string))
    "connectors children"
    [ "connectors.elect"; "connectors.index"; "connectors.seal" ]
    (children "shard/shard.connectors/");
  Alcotest.(check (list string))
    "ldel children"
    [ "ldel.icds"; "ldel.icds'"; "ldel.l1"; "ldel.l2"; "ldel.planarize" ]
    (children "shard/shard.ldel/");
  Alcotest.(check (list string))
    "assemble children"
    [ "assemble.pldel"; "assemble.pldel'" ]
    (children "shard/shard.assemble/")

(* tiling invariants: every node exactly once, tile side >= radius *)
let test_tiling_partition () =
  let rng = Wireless.Rand.create 24L in
  let pts = Wireless.Deploy.uniform rng ~n:700 ~side:300. in
  List.iter
    (fun k ->
      let owners = Core.Shard.tiling ~tiles:k pts ~radius:40. in
      let seen = Array.make (Array.length pts) 0 in
      Array.iter
        (Array.iter (fun u -> seen.(u) <- seen.(u) + 1))
        owners;
      check
        (Printf.sprintf "partition k=%d" k)
        true
        (Array.for_all (fun c -> c = 1) seen);
      (* side 300, radius 40: at most 300/40 = 7 tiles per axis no
         matter how many were requested *)
      check
        (Printf.sprintf "clamped k=%d" k)
        true
        (Array.length owners <= 8 * 8))
    [ 1; 2; 7; 50 ];
  (* unclamped counts cut exactly k x k tiles — no sliver row/column
     for the far boundary — so [Tiles 1] is one tile, the serial build *)
  List.iter
    (fun k ->
      checki
        (Printf.sprintf "exact k=%d" k)
        (k * k)
        (Array.length (Core.Shard.tiling ~tiles:k pts ~radius:40.)))
    [ 1; 2; 3 ]

(* n = 10^4, sharded bit-identical to the one-tile build for jobs in
   {1, 2, 4} — UDG, CDS family and PLDel compared edge by edge.  [Auto]
   cuts 2x2 tiles here. *)
let test_acceptance_10k () =
  let rng = Wireless.Rand.create 41L in
  let pts = Wireless.Deploy.uniform rng ~n:10_000 ~side:1000. in
  let cfg partition jobs =
    {
      Core.Backbone.Config.default with
      Core.Backbone.Config.radius = 20.;
      partition;
      jobs;
    }
  in
  let serial = Core.Backbone.run (cfg (Core.Backbone.Config.Tiles 1) 1) pts in
  List.iter
    (fun jobs ->
      let sharded =
        Core.Backbone.run (cfg Core.Backbone.Config.Auto jobs) pts
      in
      same_backbone (Printf.sprintf "10k jobs=%d" jobs) serial sharded)
    [ 1; 2; 4 ]

let suites =
  [
    ( "shard.stages",
      [
        Alcotest.test_case "udg csr identity" `Quick test_udg_csr_identity;
        Alcotest.test_case "udg csr tiny" `Quick test_udg_csr_tiny;
        Alcotest.test_case "udg kernel = brute force" `Quick
          test_udg_kernel_oracle;
        Alcotest.test_case "udg wide sparse span" `Quick test_wide_span;
        Alcotest.test_case "mis csr identity" `Quick test_mis_csr_identity;
        Alcotest.test_case "mis csr priority" `Quick test_mis_csr_priority;
        Alcotest.test_case "connectors csr identity" `Quick
          test_connectors_csr_identity;
        Alcotest.test_case "connectors = pre-index oracle" `Quick
          test_connectors_oracle;
        Alcotest.test_case "connectors oracle: hostile inputs" `Quick
          test_connectors_hostile;
        QCheck_alcotest.to_alcotest prop_connectors_oracle;
        Alcotest.test_case "ldel csr identity" `Quick test_ldel_csr_identity;
        Alcotest.test_case "ldel csr on backbone" `Quick
          test_ldel_csr_on_backbone;
        Alcotest.test_case "ldel oracle: hostile inputs" `Quick
          test_ldel_hostile;
        QCheck_alcotest.to_alcotest prop_ldel_oracle;
      ] );
    ( "shard.builder",
      [
        Alcotest.test_case "of_rows seal" `Quick test_rows_seal;
        Alcotest.test_case "view dispatch" `Quick test_view_dispatch;
      ] );
    ( "shard.halo",
      [
        Alcotest.test_case "connectors 2-local" `Quick test_connectors_halo;
        Alcotest.test_case "ldel 2-local" `Quick test_ldel_halo;
      ] );
    ( "shard.pipeline",
      [
        Alcotest.test_case "serial vs sharded run" `Quick
          test_pipeline_identity;
        Alcotest.test_case "snapshot matches run" `Quick
          test_snapshot_matches_run;
        Alcotest.test_case "quasi radio" `Quick test_pipeline_quasi;
        Alcotest.test_case "assembly = rows oracle" `Quick
          test_assembly_oracle;
        Alcotest.test_case "stage spans" `Quick test_stage_spans;
        Alcotest.test_case "tiling partition" `Quick test_tiling_partition;
        Alcotest.test_case "acceptance n=10^4 jobs sweep" `Slow
          test_acceptance_10k;
      ] );
  ]

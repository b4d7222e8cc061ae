(* End-to-end integration: the full pipeline on fixed seeds, the
   experiment harness, and cross-structure consistency. *)

module G = Netgraph.Csr

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let build seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  Core.Backbone.build pts ~radius

(* every edge of [v] is an edge of [g] *)
let within v g = G.fold_edges v (fun ok u w -> ok && G.mem_edge g u w) true

let test_pipeline_structures () =
  let bb = build 400L 80 50. in
  let structures = Core.Backbone.structures bb in
  checki "ten structures" 10 (List.length structures);
  let names = List.map (fun (n, _, _) -> n) structures in
  Alcotest.(check (list string))
    "table-one order"
    [
      "UDG"; "RNG"; "GG"; "LDel"; "CDS"; "CDS'"; "ICDS"; "ICDS'";
      "LDel(ICDS)"; "LDel(ICDS')";
    ]
    names;
  (* every structure is a subgraph of the UDG except the primed ones
     which add only UDG edges anyway *)
  List.iter
    (fun (name, g, _) ->
      check (name ^ " within UDG") true (within g bb.Core.Backbone.udg))
    structures

let test_sparseness () =
  (* every derived structure has O(n) edges: at most 6n here, versus
     the UDG's potentially quadratic count *)
  let bb = build 401L 100 60. in
  let n = 100 in
  List.iter
    (fun (name, g, _) ->
      if name <> "UDG" then
        check (name ^ " sparse") true (G.edge_count g <= 6 * n))
    (Core.Backbone.structures bb)

let test_quality_rows () =
  let bb = build 402L 70 50. in
  let sssp = Obs.counter "metrics.sssp" in
  Obs.reset ();
  Obs.set_enabled true;
  let rows =
    Fun.protect
      ~finally:(fun () -> Obs.set_enabled false)
      (fun () -> Core.Quality.rows bb)
  in
  (* seven spanning rows, each a length and a hop pass per source; the
     UDG row is the base itself and shares its passes: 2 x (1 + 6) *)
  checki "14 SSSPs per source" (14 * 70) (Obs.value sssp);
  Obs.reset ();
  checki "ten rows" 10 (List.length rows);
  List.iter
    (fun (r : Core.Quality.row) ->
      check (r.Core.Quality.name ^ " has degrees") true
        (r.Core.Quality.deg_avg >= 0.);
      match r.Core.Quality.name with
      | "CDS" | "ICDS" | "LDel(ICDS)" ->
        check "backbone rows have no stretch" true
          (r.Core.Quality.len_avg = None)
      | "UDG" ->
        check "UDG stretch is 1" true
          (r.Core.Quality.len_avg = Some 1. && r.Core.Quality.hop_max = Some 1.)
      | _ ->
        check "spanning rows have stretch" true
          (r.Core.Quality.len_avg <> None))
    rows

let test_quality_aggregate () =
  let rows1 = Core.Quality.rows (build 403L 50 50.) in
  let rows2 = Core.Quality.rows (build 404L 50 50.) in
  let aggs = Core.Quality.aggregate [ rows1; rows2 ] in
  checki "ten aggregates" 10 (List.length aggs);
  List.iteri
    (fun i (a : Core.Quality.agg) ->
      let r1 = List.nth rows1 i and r2 = List.nth rows2 i in
      check "max is max" true
        (a.Core.Quality.a_deg_max
        = max r1.Core.Quality.deg_max r2.Core.Quality.deg_max);
      check "avg is mean" true
        (Float.abs
           (a.Core.Quality.a_deg_avg
           -. ((r1.Core.Quality.deg_avg +. r2.Core.Quality.deg_avg) /. 2.))
        < 1e-9))
    aggs

let test_experiments_table1_quick () =
  let cfg = { Core.Experiments.quick with instances = 2 } in
  let aggs = Core.Experiments.table1 ~cfg ~n:40 ~radius:60. () in
  checki "ten structures" 10 (List.length aggs);
  let udg = List.hd aggs in
  check "first row is UDG" true (udg.Core.Quality.a_name = "UDG");
  check "UDG stretch 1" true (udg.Core.Quality.a_len_max = Some 1.)

let test_experiments_sweep_quick () =
  let cfg = { Core.Experiments.quick with instances = 2 } in
  let series = Core.Experiments.degree_vs_n ~cfg ~radius:60. ~ns:[ 20; 30 ] () in
  checki "twelve curves" 12 (List.length series);
  List.iter
    (fun (s : Core.Experiments.series) ->
      checki "two points each" 2 (List.length s.Core.Experiments.points))
    series;
  (* determinism: the same sweep twice gives identical numbers *)
  let series2 = Core.Experiments.degree_vs_n ~cfg ~radius:60. ~ns:[ 20; 30 ] () in
  check "deterministic" true (series = series2)

let test_experiments_comm_quick () =
  let cfg = { Core.Experiments.quick with instances = 2 } in
  let series = Core.Experiments.comm_vs_n ~cfg ~radius:60. ~ns:[ 20; 30 ] () in
  checki "six curves" 6 (List.length series);
  (* communication cost per node is a small constant *)
  List.iter
    (fun (s : Core.Experiments.series) ->
      List.iter
        (fun (_, v) -> check "bounded" true (v > 0. && v < 150.))
        s.Core.Experiments.points)
    series

let test_ldel_icds'_equals_planar_plus_links () =
  let bb = build 405L 70 50. in
  (* LDel(ICDS') = PLDel(ICDS) + dominatee-dominator links *)
  let s = bb.Core.Backbone.snap in
  G.iter_edges s.Core.Shard.pldel' (fun u v ->
      let in_planar = G.mem_edge bb.Core.Backbone.ldel_icds_g u v in
      let roles = s.Core.Shard.roles in
      let dominatee_link =
        (roles.(u) = Core.Mis.Dominatee && roles.(v) = Core.Mis.Dominator)
        || (roles.(v) = Core.Mis.Dominatee && roles.(u) = Core.Mis.Dominator)
      in
      check "edge classified" true (in_planar || dominatee_link))

let test_run_config_equals_build () =
  let rng = Wireless.Rand.create 407L in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n:60 ~side:200. ~radius:50.
      ~max_attempts:2000
  in
  let via_build = Core.Backbone.build pts ~radius:50. in
  let via_run =
    Core.Backbone.run
      { Core.Backbone.Config.default with Core.Backbone.Config.radius = 50. }
      pts
  in
  check "same udg" true
    (G.equal via_build.Core.Backbone.udg via_run.Core.Backbone.udg);
  List.iter2
    (fun (name, g1, _) (_, g2, _) ->
      check (name ^ " identical via run") true (G.edges g1 = G.edges g2))
    (Core.Backbone.structures via_build)
    (Core.Backbone.structures via_run)

let test_run_quasi_radio () =
  let rng = Wireless.Rand.create 408L in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n:60 ~side:200. ~radius:50.
      ~max_attempts:2000
  in
  let bb =
    Core.Backbone.run
      {
        Core.Backbone.Config.default with
        Core.Backbone.Config.radius = 50.;
        radio = Core.Backbone.Config.Quasi { r_min = 35.; seed = 9L };
      }
      pts
  in
  let disk = Core.Backbone.build pts ~radius:50. in
  check "quasi udg within disk udg" true
    (Tgraph.is_subgraph bb.Core.Backbone.udg disk.Core.Backbone.udg);
  (* derived structures still live inside the (quasi) UDG *)
  List.iter
    (fun (name, g, _) ->
      check (name ^ " within quasi UDG") true (within g bb.Core.Backbone.udg))
    (Core.Backbone.structures bb)

let test_registry_is_single_source () =
  Alcotest.(check (list string))
    "registry drives the published name list"
    [
      "UDG"; "RNG"; "GG"; "LDel"; "CDS"; "CDS'"; "ICDS"; "ICDS'"; "LDel(ICDS)";
      "LDel(ICDS')";
    ]
    Core.Backbone.names;
  let bb = build 409L 50 50. in
  Alcotest.(check (list string))
    "structures follow the registry order" Core.Backbone.names
    (List.map (fun (n, _, _) -> n) (Core.Backbone.structures bb));
  Alcotest.(check (list string))
    "backbone family subset, in order"
    [ "CDS"; "CDS'"; "ICDS"; "ICDS'"; "LDel(ICDS)"; "LDel(ICDS')" ]
    (List.map (fun (n, _, _) -> n) (Core.Backbone.backbone_structures bb));
  Alcotest.(check (list string))
    "spanning backbone structures are the primed ones"
    [ "CDS'"; "ICDS'"; "LDel(ICDS')" ]
    (List.map (fun (n, _, _) -> n)
       (Core.Backbone.spanning_backbone_structures bb));
  (* scopes: exactly the non-spanning backbones are Backbone_only *)
  List.iter
    (fun (name, _, scope) ->
      let expect_backbone_only =
        List.mem name [ "CDS"; "ICDS"; "LDel(ICDS)" ]
      in
      check (name ^ " scope") true
        (scope = if expect_backbone_only then `Backbone_only else `Spans_all))
    (Core.Backbone.structures bb)

(* Table I rebuilt beside the registry: the baselines built on the
   snapshot's UDG, and the primed rows rebuilt as their base plus each
   dominatee's links to the dominators it hears (never through
   [Shard.primed]); the rows as one fused stretch pass over those
   graphs. *)
module Table_oracle = struct
  module M = Netgraph.Metrics

  let structures (s : Core.Shard.snapshot) =
    let open Core.Shard in
    let udg = s.udg in
    let links = ref [] in
    Array.iteri
      (fun u r ->
        if r = Core.Mis.Dominatee then
          List.iter
            (fun d -> links := (u, d) :: !links)
            (Core.Mis.dominators_of udg s.roles u))
      s.roles;
    let links = G.of_edges (Array.length s.points) !links in
    let primed g = Tgraph.union g links in
    let cds = s.cds and pldel = s.pldel in
    [
      ("UDG", udg, `Spans_all);
      ("RNG", Wireless.Proximity.rng_graph udg s.points, `Spans_all);
      ("GG", Wireless.Proximity.gabriel_graph udg s.points, `Spans_all);
      ( "LDel",
        Core.Ldel.planar udg (Core.Ldel.build udg s.points ~radius:s.radius),
        `Spans_all );
      ("CDS", cds, `Backbone_only);
      ("CDS'", primed cds, `Spans_all);
      ("ICDS", s.icds, `Backbone_only);
      ("ICDS'", s.icds', `Spans_all);
      ("LDel(ICDS)", pldel, `Backbone_only);
      ("LDel(ICDS')", primed pldel, `Spans_all);
    ]

  let rows ~jobs (s : Core.Shard.snapshot) =
    let entries = structures s in
    let spanning =
      List.filter_map
        (fun (name, g, scope) ->
          if scope = `Spans_all then Some (name, g) else None)
        entries
    in
    let udg = match entries with (_, g, _) :: _ -> g | [] -> assert false in
    let stretch = M.combined_stretch ~jobs ~base:udg s.Core.Shard.points spanning in
    List.map
      (fun (name, g, scope) ->
        let d = M.degree_stats g in
        let st f =
          if scope = `Spans_all then
            Some (f (List.assoc name stretch).M.c_stretch)
          else None
        in
        {
          Core.Quality.name;
          deg_avg = d.M.deg_avg;
          deg_max = d.M.deg_max;
          len_avg = st (fun s -> s.M.len_avg);
          len_max = st (fun s -> s.M.len_max);
          hop_avg = st (fun s -> s.M.hop_avg);
          hop_max = st (fun s -> s.M.hop_max);
          edges = d.M.edges;
        })
      entries
end

(* Every Table I row read off the snapshot equals the table oracle's,
   bit for bit, for any tiling and job count.  Constant density (side
   10 sqrt n); R = 25 gives about 20 neighbours and a connected UDG,
   while n = 2000 runs at R = 10, below the percolation threshold:
   hundreds of components, which keeps its all-pairs stretch cheap and
   covers structures built per component. *)
let test_table1_equals_table_oracle () =
  List.iter
    (fun (seed, n, radius) ->
      let rng = Wireless.Rand.create seed in
      let pts =
        Wireless.Deploy.uniform rng ~n ~side:(10. *. sqrt (float_of_int n))
      in
      let cfg partition jobs =
        {
          Core.Backbone.Config.default with
          Core.Backbone.Config.radius;
          partition;
          jobs;
        }
      in
      let want =
        Table_oracle.rows ~jobs:2
          (Core.Backbone.snapshot (cfg (Core.Backbone.Config.Tiles 1) 1) pts)
      in
      List.iter
        (fun (partition, jobs) ->
          let got = Core.Quality.rows (Core.Backbone.run (cfg partition jobs) pts) in
          List.iter2
            (fun (w : Core.Quality.row) (g : Core.Quality.row) ->
              check
                (Printf.sprintf "seed=%Ld n=%d %s jobs=%d %s" seed n
                   (match partition with
                   | Core.Backbone.Config.Auto -> "auto"
                   | Core.Backbone.Config.Tiles k -> Printf.sprintf "tiles=%d" k)
                   jobs w.Core.Quality.name)
                true (w = g))
            want got)
        Core.Backbone.Config.
          [
            (Tiles 1, 1); (Tiles 1, 2); (Tiles 2, 1); (Tiles 2, 2); (Auto, 1);
            (Auto, 2);
          ])
    [
      (1L, 20, 25.); (2L, 20, 25.); (3L, 500, 25.); (4L, 500, 25.);
      (5L, 2000, 10.); (6L, 2000, 10.);
    ]

let test_deterministic_pipeline () =
  let bb1 = build 406L 60 50. in
  let bb2 = build 406L 60 50. in
  check "same udg" true (G.equal bb1.Core.Backbone.udg bb2.Core.Backbone.udg);
  check "same backbone graph" true
    (G.equal bb1.Core.Backbone.ldel_icds_g bb2.Core.Backbone.ldel_icds_g)

let suites =
  [
    ( "integration",
      [
        Alcotest.test_case "pipeline structures" `Quick
          test_pipeline_structures;
        Alcotest.test_case "sparseness" `Quick test_sparseness;
        Alcotest.test_case "quality rows" `Quick test_quality_rows;
        Alcotest.test_case "quality aggregation" `Quick test_quality_aggregate;
        Alcotest.test_case "table1 (quick)" `Quick
          test_experiments_table1_quick;
        Alcotest.test_case "degree sweep (quick)" `Slow
          test_experiments_sweep_quick;
        Alcotest.test_case "comm sweep (quick)" `Slow
          test_experiments_comm_quick;
        Alcotest.test_case "LDel(ICDS') composition" `Quick
          test_ldel_icds'_equals_planar_plus_links;
        Alcotest.test_case "Backbone.run equals build" `Quick
          test_run_config_equals_build;
        Alcotest.test_case "Backbone.run quasi radio" `Quick
          test_run_quasi_radio;
        Alcotest.test_case "registry single source" `Quick
          test_registry_is_single_source;
        Alcotest.test_case "pipeline deterministic" `Quick
          test_deterministic_pipeline;
        Alcotest.test_case "Table I = Table_oracle" `Slow
          test_table1_equals_table_oracle;
      ] );
  ]

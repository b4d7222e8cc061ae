(* Benchmark and experiment harness.

   Running with no arguments regenerates every table and figure of the
   paper's evaluation (Section IV), then the ablation studies from
   DESIGN.md, then Bechamel micro-benchmarks of the construction
   algorithms.  Individual artifacts can be selected:

     dune exec bench/main.exe -- table1 fig8 fig12
     dune exec bench/main.exe -- --quick          # smaller instances
     dune exec bench/main.exe -- metrics --check  # regression gate

   --check re-runs a gated benchmark (metrics, pipeline, serve) and
   compares it against its committed BENCH_*.json baseline: counters
   must match exactly, span timings may regress by at most
   --check-threshold (default 0.5, i.e. +50%).  The baseline's
   bench.jobs pin and its bench.release profile stamp are validated
   before anything is compared.  The serve gate also holds the
   paper's claim as an absolute bound: every gfg and stretch query
   is delivered; the pipeline's protocol leg holds two: the
   message-level PLDel(ICDS) equals the centralized one, and every
   protocol phase stays within its round budget.  Any violation fails
   the run with exit code 1.  All three gates compare only top-level spans — nested stage spans
   are milliseconds-scale and dominated by scheduler noise, while the
   determinism counters (edge counts per structure) already pin the
   outputs exactly; the nested spans stay recorded in each baseline.

   Reported numbers are deterministic for a fixed configuration. *)

let pf = Format.printf

(* --out DIR: also export each figure's series as CSV and SVG charts *)
let out_dir : string option ref = ref None

(* --stats: per-artifact obs report (counters + stage spans) *)
let with_stats = ref false

let chart_series (s : Core.Experiments.series) =
  { Viz.Chart.label = s.Core.Experiments.label; points = s.Core.Experiments.points }

let export name ~xlabel series =
  match !out_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    (* CSV: one row per x, one column per curve.  Each curve's points
       are materialized as an array once (row lookups are O(1), not
       List.nth), and a curve shorter than the x column yields empty
       cells instead of raising. *)
    let csv = Filename.concat dir (name ^ ".csv") in
    let oc = open_out csv in
    (match series with
    | [] -> ()
    | first :: _ ->
      Printf.fprintf oc "x,%s\n"
        (String.concat ","
           (List.map (fun s -> s.Core.Experiments.label) series));
      let cols =
        List.map (fun s -> Array.of_list s.Core.Experiments.points) series
      in
      List.iteri
        (fun i (x, _) ->
          Printf.fprintf oc "%g" x;
          List.iter
            (fun col ->
              if i < Array.length col then
                Printf.fprintf oc ",%g" (snd col.(i))
              else output_string oc ",")
            cols;
          output_char oc '\n')
        first.Core.Experiments.points);
    close_out oc;
    (* SVG panels: split max and avg curves as the paper does *)
    let has_suffix suf (s : Core.Experiments.series) =
      let l = s.Core.Experiments.label and n = String.length suf in
      String.length l >= n && String.sub l (String.length l - n) n = suf
    in
    let panel suffix =
      match List.filter (has_suffix suffix) series with
      | [] -> ()
      | sel ->
        let file =
          Filename.concat dir
            (Printf.sprintf "%s-%s.svg" name
               (String.concat "" (String.split_on_char ' ' suffix)))
        in
        Viz.Chart.write_file
          ~title:(name ^ " (" ^ String.trim suffix ^ ")")
          ~xlabel ~ylabel:(String.trim suffix)
          (List.map chart_series sel)
          file
    in
    if List.exists (has_suffix " max") series then begin
      panel " max";
      panel " avg"
    end
    else
      Viz.Chart.write_file ~title:name ~xlabel ~ylabel:"value"
        (List.map chart_series series)
        (Filename.concat dir (name ^ ".svg"));
    pf "  [exported %s to %s]@." name dir

let header title =
  pf "@.============================================================@.";
  pf "%s@." title;
  pf "============================================================@."

(* ------------------------------------------------------------------ *)
(* Paper artifacts                                                     *)
(* ------------------------------------------------------------------ *)

let table1 cfg =
  header
    "Table I: topology quality (n = 100, R = 60, 200x200 square)\n\
     paper-vs-measured comparison recorded in EXPERIMENTS.md";
  let aggs = Core.Experiments.table1 ~cfg ~n:100 ~radius:60. () in
  pf "%a@." Core.Quality.pp_agg_header ();
  List.iter (fun a -> pf "%a@." Core.Quality.pp_agg a) aggs

let fig8 cfg =
  header "Figure 8: node degree vs number of nodes (R = 60)";
  let series = Core.Experiments.degree_vs_n ~cfg ~radius:60. () in
  pf "%a@." Core.Experiments.pp_series series;
  export "fig8" ~xlabel:"number of nodes" series

let fig9 cfg =
  header "Figure 9: spanning ratios vs number of nodes (R = 60)";
  let series = Core.Experiments.stretch_vs_n ~cfg ~radius:60. () in
  pf "%a@." Core.Experiments.pp_series series;
  export "fig9" ~xlabel:"number of nodes" series

let fig10 cfg =
  header "Figure 10: per-node communication cost vs number of nodes (R = 60)";
  let series = Core.Experiments.comm_vs_n ~cfg ~radius:60. () in
  pf "%a@." Core.Experiments.pp_series series;
  export "fig10" ~xlabel:"number of nodes" series

let fig11 cfg n =
  header
    (Printf.sprintf
       "Figure 11: spanning ratios vs transmission radius (n = %d)" n);
  let series = Core.Experiments.stretch_vs_radius ~cfg ~n () in
  pf "%a@." Core.Experiments.pp_series series;
  export "fig11" ~xlabel:"transmission radius" series

let fig12 cfg n =
  header
    (Printf.sprintf
       "Figure 12: communication cost and node degree vs radius (n = %d)" n);
  let series = Core.Experiments.comm_and_degree_vs_radius ~cfg ~n () in
  pf "%a@." Core.Experiments.pp_series series;
  export "fig12" ~xlabel:"transmission radius" series

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4)                                     *)
(* ------------------------------------------------------------------ *)

let instances cfg n radius =
  let rng = Wireless.Rand.create cfg.Core.Experiments.seed in
  List.init cfg.Core.Experiments.instances (fun _ ->
      fst
        (Wireless.Deploy.connected_uniform rng ~n
           ~side:cfg.Core.Experiments.side ~radius
           ~max_attempts:cfg.Core.Experiments.max_attempts))

let ablation_clustering cfg =
  header "Ablation: clustering priority (smallest-ID vs highest-degree-first)";
  let radius = 60. in
  let stats priority =
    let doms = ref 0. and edges = ref 0. and stretch = ref 0. and k = ref 0 in
    List.iter
      (fun pts ->
        let udg = Wireless.Udg.build pts ~radius in
        let snap =
          Core.Shard.pipeline ~priority:(priority udg) ~udg pts ~radius
        in
        let s =
          Netgraph.Metrics.stretch_factors ~base:udg
            ~sub:snap.Core.Shard.pldel'
            pts
        in
        doms :=
          !doms
          +. float_of_int
               (List.length (Core.Mis.dominators snap.Core.Shard.roles));
        edges :=
          !edges +. float_of_int (Netgraph.Csr.edge_count snap.Core.Shard.cds);
        stretch := !stretch +. s.Netgraph.Metrics.len_avg;
        incr k)
      (instances cfg 100 radius);
    let k = float_of_int !k in
    (!doms /. k, !edges /. k, !stretch /. k)
  in
  let d1, e1, s1 = stats (fun _ _ -> 0) in
  let d2, e2, s2 = stats (fun udg u -> -Netgraph.Csr.degree udg u) in
  pf "%-22s %10s %10s %12s@." "priority" "dominators" "CDS edges" "len stretch";
  pf "%-22s %10.1f %10.1f %12.3f@." "smallest-ID (paper)" d1 e1 s1;
  pf "%-22s %10.1f %10.1f %12.3f@." "highest-degree-first" d2 e2 s2

let ablation_ldel_scope cfg =
  header "Ablation: LDel over the whole UDG vs over the backbone ICDS";
  let radius = 60. in
  let total_v = ref 0.
  and total_i = ref 0.
  and tris_v = ref 0.
  and tris_i = ref 0. in
  let k = ref 0 in
  List.iter
    (fun pts ->
      let snap = (Core.Backbone.build pts ~radius).Core.Backbone.snap in
      let udg = snap.Core.Shard.udg in
      let lv = Core.Ldel.build udg pts ~radius in
      let tris (l : Core.Ldel.t) = float_of_int (Array.length l.Core.Ldel.tri / 3) in
      total_v :=
        !total_v
        +. float_of_int (Netgraph.Csr.edge_count (Core.Ldel.planar udg lv));
      total_i :=
        !total_i +. float_of_int (Netgraph.Csr.edge_count snap.Core.Shard.pldel);
      tris_v := !tris_v +. tris lv;
      tris_i :=
        !tris_i +. tris (Core.Ldel.build snap.Core.Shard.icds pts ~radius);
      incr k)
    (instances cfg 100 radius);
  let k = float_of_int !k in
  pf "%-18s %12s %12s@." "scope" "PLDel edges" "LDel1 tris";
  pf "%-18s %12.1f %12.1f@." "whole UDG" (!total_v /. k) (!tris_v /. k);
  pf "%-18s %12.1f %12.1f@." "backbone ICDS" (!total_i /. k) (!tris_i /. k)

let ablation_connectors cfg =
  header "Ablation: connector selection (paper elections / Alzoubi / Baker)";
  let radius = 60. in
  let agg = Hashtbl.create 4 in
  let bump key v =
    Hashtbl.replace agg key (v +. Option.value ~default:0. (Hashtbl.find_opt agg key))
  in
  let k = ref 0 in
  List.iter
    (fun pts ->
      let csr = Wireless.Udg.build pts ~radius in
      Wireless.Udg.observe_queries csr;
      let roles = Core.Mis.compute csr in
      List.iter
        (fun (name, find) ->
          let conn : Core.Connectors.t = find csr roles in
          let connector = conn.Core.Connectors.connector in
          let backbone u = roles.(u) = Core.Mis.Dominator || connector.(u) in
          let cds = conn.Core.Connectors.cds in
          let icds =
            Netgraph.Csr.filter csr (fun u v -> backbone u && backbone v)
          in
          (* the UDG holds every dominatee link, so it stands in for
             the variant's ICDS' *)
          let cds' = Core.Shard.primed roles csr cds in
          let connectors =
            Array.fold_left (fun a c -> if c then a + 1 else a) 0 connector
          in
          bump (name, "connectors") (float_of_int connectors);
          bump (name, "cds edges") (float_of_int (Netgraph.Csr.edge_count cds));
          bump (name, "icds edges")
            (float_of_int (Netgraph.Csr.edge_count icds));
          let s =
            Netgraph.Metrics.stretch_factors ~base:csr ~sub:cds' pts
          in
          bump (name, "hop avg") s.Netgraph.Metrics.hop_avg)
        [
          ("elections (paper)", fun udg roles -> Core.Connectors.find udg roles);
          ("alzoubi single-path", Core.Connectors.find_alzoubi);
          ("baker highest-ID", Core.Connectors.find_baker);
        ];
      incr k)
    (instances cfg 100 radius);
  let kf = float_of_int !k in
  pf "%-22s %11s %10s %11s %9s@." "selection" "connectors" "CDS edges"
    "ICDS edges" "hop avg";
  List.iter
    (fun name ->
      let get m = Hashtbl.find agg (name, m) /. kf in
      pf "%-22s %11.1f %10.1f %11.1f %9.3f@." name (get "connectors")
        (get "cds edges") (get "icds edges") (get "hop avg"))
    [ "elections (paper)"; "alzoubi single-path"; "baker highest-ID" ]

let extension_power_stretch cfg =
  header
    "Extension: power stretch factors (path cost = sum |link|^beta)";
  let radius = 60. in
  let pts = List.hd (instances cfg 100 radius) in
  let bb = Core.Backbone.build pts ~radius in
  let udg = bb.Core.Backbone.snap.Core.Shard.udg in
  (* every spanning structure of the registry, measured against the
     UDG base (which is excluded: its power stretch is 1) *)
  let structures =
    List.filter_map
      (fun (name, g, scope) ->
        if scope = `Spans_all && name <> "UDG" then Some (name, g) else None)
      (Core.Backbone.structures bb)
  in
  pf "%-13s %12s %12s %12s %12s@." "structure" "b=2 avg" "b=2 max" "b=4 avg"
    "b=4 max";
  List.iter
    (fun (name, g) ->
      let a2, m2 = Netgraph.Metrics.power_stretch ~base:udg ~sub:g pts ~beta:2. in
      let a4, m4 = Netgraph.Metrics.power_stretch ~base:udg ~sub:g pts ~beta:4. in
      pf "%-13s %12.3f %12.3f %12.3f %12.3f@." name a2 m2 a4 m4)
    structures

let ablation_routing cfg =
  header "Ablation: routing scheme delivery and stretch (n = 100, R = 60)";
  let radius = 60. in
  let pts = List.hd (instances cfg 100 radius) in
  let bb = Core.Backbone.build pts ~radius in
  let udg = bb.Core.Backbone.snap.Core.Shard.udg in
  let planar_full = Core.Backbone.ldel_full bb in
  let rng = Wireless.Rand.create 424242L in
  let eval name router =
    let ev =
      Core.Routing.evaluate ~router ~base:udg pts ~pairs:200
        (Wireless.Rand.split rng)
    in
    pf "%-28s %5d/%-5d %12.3f %12.3f@." name ev.Core.Routing.delivered
      ev.Core.Routing.pairs ev.Core.Routing.avg_length_stretch
      ev.Core.Routing.avg_hop_stretch
  in
  pf "%-28s %11s %12s %12s@." "router" "delivered" "len stretch" "hop stretch";
  eval "greedy on UDG" (fun ~src ~dst -> Core.Routing.greedy udg pts ~src ~dst);
  eval "greedy on PLDel(V)" (fun ~src ~dst ->
      Core.Routing.greedy planar_full pts ~src ~dst);
  eval "GFG on PLDel(V)" (fun ~src ~dst ->
      Core.Routing.gfg planar_full pts ~src ~dst);
  eval "hierarchical on backbone" (fun ~src ~dst ->
      Core.Routing.hierarchical bb.Core.Backbone.snap ~src ~dst)

let extension_broadcast cfg =
  header "Extension: broadcast transmissions (flooding vs backbone relay)";
  let radius = 60. in
  pf "%-6s %9s %9s %9s %10s@." "n" "flood" "rng-relay" "backbone" "coverage";
  List.iter
    (fun n ->
      let cfg = { cfg with Core.Experiments.instances = 3 } in
      let f = ref 0 and r = ref 0 and b = ref 0 and k = ref 0 in
      let cover = ref 1. in
      List.iter
        (fun pts ->
          let snap = Core.Shard.pipeline pts ~radius in
          let udg = snap.Core.Shard.udg in
          let backbone = snap.Core.Shard.backbone in
          let of_ o = o.Core.Broadcast.transmissions in
          f := !f + of_ (Core.Broadcast.flood udg ~source:0);
          r := !r + of_ (Core.Broadcast.rng_relay udg pts ~source:0);
          let bb = Core.Broadcast.backbone_broadcast udg ~backbone ~source:0 in
          b := !b + of_ bb;
          cover := Float.min !cover (Core.Broadcast.coverage bb);
          incr k)
        (instances cfg n radius);
      pf "%-6d %9.1f %9.1f %9.1f %10.2f@." n
        (float_of_int !f /. float_of_int !k)
        (float_of_int !r /. float_of_int !k)
        (float_of_int !b /. float_of_int !k)
        !cover)
    [ 50; 100; 200 ]

let extension_packet_level cfg =
  header "Extension: packet-level GPSR on the planar backbone (distsim)";
  let radius = 60. in
  let pts = List.hd (instances cfg 100 radius) in
  let bb = Core.Backbone.build pts ~radius in
  let planar = Core.Backbone.ldel_full bb in
  pf "%-10s %11s %16s@." "router" "delivered" "tx/packet";
  List.iter
    (fun (name, router) ->
      let delivered, pairs, avg =
        Core.Packetsim.many planar pts ~pairs:200
          (Wireless.Rand.create 9L)
          ~router
      in
      pf "%-10s %6d/%-6d %16.2f@." name delivered pairs avg)
    [ ("greedy", `Greedy); ("gpsr", `Gpsr) ]

let extension_quasi_udg cfg =
  header
    "Extension: robustness under a quasi unit disk radio (future work)";
  let r_max = 60. in
  pf "%-12s %10s %12s %12s %12s@." "r_min/r_max" "planar" "connected"
    "crossings" "edges";
  List.iter
    (fun alpha ->
      let planar_ok = ref 0 and connected_ok = ref 0 in
      let crossings = ref 0 and edges = ref 0 and k = ref 0 in
      List.iter
        (fun pts ->
          let rng = Wireless.Rand.create (Int64.of_float (alpha *. 1000.)) in
          let g =
            Wireless.Udg.build_quasi rng pts ~r_min:(alpha *. r_max) ~r_max
          in
          if Netgraph.Csr.is_connected g then begin
            incr k;
            (* run the paper's construction on the non-ideal graph *)
            let snap = Core.Shard.pipeline ~udg:g pts ~radius:r_max in
            let planar = snap.Core.Shard.pldel in
            if Netgraph.Planarity.is_planar planar pts then incr planar_ok;
            crossings :=
              !crossings + Netgraph.Planarity.crossing_count planar pts;
            edges := !edges + Netgraph.Csr.edge_count planar;
            if Netgraph.Csr.is_connected snap.Core.Shard.pldel' then
              incr connected_ok
          end)
        (instances { cfg with Core.Experiments.instances = 5 } 100 r_max);
      let kf = float_of_int (max 1 !k) in
      pf "%-12.2f %6d/%-3d %8d/%-3d %12.1f %12.1f@." alpha !planar_ok !k
        !connected_ok !k
        (float_of_int !crossings /. kf)
        (float_of_int !edges /. kf))
    [ 1.0; 0.9; 0.75; 0.5 ]

let extension_lifetime cfg =
  header
    "Extension: network lifetime, static vs energy-aware clusterhead \
     rotation (beta = 3)";
  let radius = 60. in
  pf "%-16s %12s %8s %10s@." "policy" "first death" "deaths" "delivery";
  let pts = List.hd (instances cfg 100 radius) in
  List.iter
    (fun (name, policy) ->
      let r =
        Core.Energy.run pts ~radius ~sink:0 ~policy ~epochs:100 ~battery:2e8
          ~beta:3.
      in
      pf "%-16s %12s %8d %10.3f@." name
        (match r.Core.Energy.first_death with
        | Some e -> string_of_int e
        | None -> "-")
        (List.length r.Core.Energy.deaths)
        (Core.Energy.delivery_ratio r))
    [
      ("static", Core.Energy.Static);
      ("rotate every 5", Core.Energy.Energy_aware 5);
      ("rotate every 2", Core.Energy.Energy_aware 2);
    ]

let extension_bounds cfg =
  header
    "Extension: the lemmas' theoretical constants vs measured worst cases";
  let radius = 60. in
  let max_doms_per_dominatee = ref 0 in
  let max_doms_2r = ref 0 in
  let max_icds_deg = ref 0 in
  let worst_hop = ref 0. and worst_len = ref 0. in
  List.iter
    (fun pts ->
      let snap = Core.Shard.pipeline pts ~radius in
      let udg = snap.Core.Shard.udg and roles = snap.Core.Shard.roles in
      Array.iteri
        (fun u r ->
          if r = Core.Mis.Dominatee then
            max_doms_per_dominatee :=
              max !max_doms_per_dominatee
                (Netgraph.Csr.fold_neighbors udg u
                   (fun c v ->
                     if roles.(v) = Core.Mis.Dominator then c + 1 else c)
                   0))
        roles;
      Array.iteri
        (fun u _ ->
          let c = ref 0 in
          Array.iteri
            (fun v r ->
              if
                r = Core.Mis.Dominator
                && Geometry.Point.dist pts.(u) pts.(v) <= 2. *. radius
              then incr c)
            roles;
          max_doms_2r := max !max_doms_2r !c)
        pts;
      max_icds_deg :=
        max !max_icds_deg
          (Netgraph.Metrics.degree_stats snap.Core.Shard.icds)
            .Netgraph.Metrics.deg_max;
      let cds' =
        Core.Shard.primed roles snap.Core.Shard.icds' snap.Core.Shard.cds
      in
      let s =
        Netgraph.Metrics.stretch_factors ~base:udg ~sub:cds' pts
      in
      worst_hop := Float.max !worst_hop s.Netgraph.Metrics.hop_max;
      worst_len := Float.max !worst_len s.Netgraph.Metrics.len_max)
    (instances cfg 100 radius);
  pf "%-38s %10s %10s@." "quantity" "theory" "measured";
  pf "%-38s %10d %10d@." "dominators per dominatee (L1)"
    Core.Bounds.max_dominators_per_dominatee !max_doms_per_dominatee;
  pf "%-38s %10d %10d@." "dominators within 2R (L2, C_2)"
    (Core.Bounds.dominators_within 2.) !max_doms_2r;
  pf "%-38s %10d %10d@." "ICDS degree (L8, 5C_2 + C_3)"
    Core.Bounds.icds_degree !max_icds_deg;
  pf "%-38s %10d %10.2f@." "CDS' hop stretch (L5)" Core.Bounds.hop_stretch
    !worst_hop;
  pf "%-38s %10d %10.2f@." "CDS' length stretch (L6)"
    Core.Bounds.length_stretch !worst_len;
  pf "%-38s %10d %10s@." "LDel(ICDS) hops per ICDS link (L7)"
    Core.Bounds.ldel_link_hops "<< bound";
  pf "(the paper itself notes these constants are loose)@."

(* ------------------------------------------------------------------ *)
(* Metrics engine benchmark                                            *)
(* ------------------------------------------------------------------ *)

(* A faithful copy of the stretch implementation the fused CSR engine
   replaced: one pass per metric, neighbor lists, a boxed-tuple heap
   and a settled array.  Kept verbatim so the
   reported speedup is measured against the real predecessor. *)
module Seed_metrics = struct
  module G = Netgraph.Csr

  let weighted_sssp g cost s =
    let n = G.node_count g in
    let dist = Array.make n infinity in
    let settled = Array.make n false in
    dist.(s) <- 0.;
    let data = ref (Array.make 16 (0., 0)) in
    let size = ref 0 in
    let swap i j =
      let t = !data.(i) in
      !data.(i) <- !data.(j);
      !data.(j) <- t
    in
    let push k v =
      if !size = Array.length !data then begin
        let bigger = Array.make (2 * !size) (0., 0) in
        Array.blit !data 0 bigger 0 !size;
        data := bigger
      end;
      !data.(!size) <- (k, v);
      incr size;
      let i = ref (!size - 1) in
      while !i > 0 && fst !data.((!i - 1) / 2) > fst !data.(!i) do
        swap ((!i - 1) / 2) !i;
        i := (!i - 1) / 2
      done
    in
    let pop () =
      if !size = 0 then None
      else begin
        let top = !data.(0) in
        decr size;
        !data.(0) <- !data.(!size);
        let i = ref 0 and continue = ref true in
        while !continue do
          let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
          let smallest = ref !i in
          if l < !size && fst !data.(l) < fst !data.(!smallest) then
            smallest := l;
          if r < !size && fst !data.(r) < fst !data.(!smallest) then
            smallest := r;
          if !smallest <> !i then begin
            swap !i !smallest;
            i := !smallest
          end
          else continue := false
        done;
        Some top
      end
    in
    push 0. s;
    let rec loop () =
      match pop () with
      | None -> ()
      | Some (d, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          List.iter
            (fun v ->
              let nd = d +. cost u v in
              if nd < dist.(v) then begin
                dist.(v) <- nd;
                push nd v
              end)
            (G.neighbors g u)
        end;
        loop ()
    in
    loop ();
    dist

  let bfs g s =
    let n = G.node_count g in
    let dist = Array.make n max_int in
    dist.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun v ->
          if dist.(v) = max_int then begin
            dist.(v) <- dist.(u) + 1;
            Queue.add v q
          end)
        (G.neighbors g u)
    done;
    dist

  let generic_stretch ~base ~sub sssp to_float =
    let n = G.node_count base in
    let sum = ref 0. and maxr = ref 0. and pairs = ref 0 in
    for s = 0 to n - 1 do
      let db = sssp base s in
      let ds = sssp sub s in
      for t = s + 1 to n - 1 do
        if G.mem_edge base s t then begin
          sum := !sum +. 1.;
          if !maxr < 1. then maxr := 1.;
          incr pairs
        end
        else
          match (to_float db.(t), to_float ds.(t)) with
          | None, _ -> ()
          | Some _, None -> failwith "disconnected"
          | Some b, Some sb ->
            if b > 0. then begin
              let r = sb /. b in
              sum := !sum +. r;
              if r > !maxr then maxr := r;
              incr pairs
            end
      done
    done;
    if !pairs = 0 then (1., 1.) else (!sum /. float_of_int !pairs, !maxr)

  let stretch_factors ~base ~sub points =
    let float_dist d = if d = infinity then None else Some d in
    let hop_dist d = if d = max_int then None else Some (float_of_int d) in
    let euclid u v = Geometry.Point.dist points.(u) points.(v) in
    let len_avg, len_max =
      generic_stretch ~base ~sub
        (fun g s -> weighted_sssp g euclid s)
        float_dist
    in
    let hop_avg, hop_max =
      generic_stretch ~base ~sub (fun g s -> bfs g s) hop_dist
    in
    (len_avg, len_max, hop_avg, hop_max)

  let power_stretch ~base ~sub points ~beta =
    let cost u v = Geometry.Point.dist points.(u) points.(v) ** beta in
    let to_float d = if d = infinity then None else Some d in
    generic_stretch ~base ~sub (fun g s -> weighted_sssp g cost s) to_float
end

(* committed baseline configuration marker: a jobs mismatch between the
   checking run and the committed baseline shows up as a counter
   violation instead of a silent apples-to-oranges timing comparison *)
let c_bench_jobs = Obs.counter "bench.jobs"

(* 1 when this binary was built with [--profile release], the profile
   the committed BENCH_pipeline.json is recorded from *)
let c_bench_release = Obs.counter "bench.release"
let release_build = Build_profile.name = "release"

(* ------------------------------------------------------------------ *)
(* Shared regression-gate plumbing (metrics, pipeline, serve)          *)
(* ------------------------------------------------------------------ *)

(* any failure here names the artifact file: "Scanf: bad input" alone
   is useless when three BENCH_*.json baselines are in play *)
let read_baseline file =
  let contents =
    match open_in_bin file with
    | exception Sys_error msg ->
      pf "  [check FAILED: cannot read baseline %s: %s]@." file msg;
      exit 1
    | ic ->
      let contents = really_input_string ic (in_channel_length ic) in
      close_in ic;
      contents
  in
  match Obs.Snapshot.of_json_lines contents with
  | snap -> snap
  | exception Failure msg ->
    pf "  [check FAILED: baseline %s does not parse: %s]@." file msg;
    exit 1

let write_baseline file snap =
  let oc = open_out file in
  let fmt = Format.formatter_of_out_channel oc in
  Obs.json fmt snap;
  Format.pp_print_flush fmt ();
  close_out oc;
  pf "  [wrote %s]@." file

(* the one per-key expected/actual/delta table every gate prints *)
let pp_mismatches file threshold (mismatches : Obs.Snapshot.mismatch list) =
  pf "  [check FAILED against %s: %d mismatches, span threshold +%.0f%%]@."
    file (List.length mismatches) (100. *. threshold);
  pf "    %-12s %-44s %14s %14s %10s@." "kind" "key" "expected" "actual"
    "delta";
  List.iter
    (fun (m : Obs.Snapshot.mismatch) ->
      let delta =
        if Float.is_nan m.Obs.Snapshot.m_actual then "missing"
        else if Float.is_nan m.Obs.Snapshot.m_expected then "unrecorded"
        else begin
          let d = m.Obs.Snapshot.m_actual -. m.Obs.Snapshot.m_expected in
          if m.Obs.Snapshot.m_expected <> 0. then
            Printf.sprintf "%+.1f%%" (100. *. d /. m.Obs.Snapshot.m_expected)
          else Printf.sprintf "%+g" d
        end
      in
      pf "    %-12s %-44s %14g %14g %10s@." m.Obs.Snapshot.m_kind
        m.Obs.Snapshot.m_name m.Obs.Snapshot.m_expected m.Obs.Snapshot.m_actual
        delta)
    mismatches

(* [bench.jobs] pinning, validated up front: comparing a --jobs J run
   against a baseline recorded at a different J would fail on every
   j-suffixed span/counter key anyway — fail fast with the reason
   instead of a wall of per-key noise.  Returns true when the gate may
   proceed. *)
let validate_bench_jobs file (reference : Obs.Snapshot.t) jobs =
  match List.assoc_opt "bench.jobs" reference.Obs.Snapshot.counters with
  | Some j when j = jobs -> true
  | Some j ->
    pf
      "  [check FAILED: %s was recorded with --jobs %d, this run uses --jobs \
       %d — rerun with --jobs %d or regenerate the baseline]@."
      file j jobs j;
    false
  | None ->
    pf "  [check FAILED: %s has no bench.jobs pin — regenerate the baseline]@."
      file;
    false

(* [bench.release] pinning, validated up front like [bench.jobs]: a
   dev build compiles with -opaque, so every stage span would read as a
   regression (or a gain) against a release baseline.  Returns true
   when the gate may proceed. *)
let validate_bench_release file (reference : Obs.Snapshot.t) =
  let profile r = if r then "release" else "dev" in
  let recorded =
    List.assoc_opt "bench.release" reference.Obs.Snapshot.counters = Some 1
  in
  recorded = release_build
  || begin
       pf
         "  [check FAILED: bench.release: %s was recorded from a %s build, \
          this is a %s build (%s profile) — %s]@."
         file (profile recorded) (profile release_build) Build_profile.name
         (if recorded then "rebuild with dune build --profile release"
          else "regenerate the baseline from a --profile release build");
       false
     end

(* Nested stage spans are milliseconds-scale and dominated by
   scheduler noise, while the determinism counters already pin the
   outputs exactly: they stay in the committed JSON for inspection, and
   only top-level spans are gated. *)
let top_level_spans (reference : Obs.Snapshot.t) =
  {
    reference with
    Obs.Snapshot.spans =
      List.filter
        (fun (sp : Obs.Snapshot.span_stats) ->
          not (String.contains sp.Obs.Snapshot.path '/'))
        reference.Obs.Snapshot.spans;
  }

(* The one regression gate.  Without [check], [snap] becomes the new
   baseline [file].  With [check = Some threshold], the committed
   baseline is read, its bench.jobs pin and bench.release stamp
   validated, narrowed by [filter], and [snap] compared against it;
   any failure restores the obs switch to [was] and exits 1. *)
let gate ?(filter = Fun.id) ~was ~jobs file snap check =
  let fail () =
    Obs.set_enabled was;
    exit 1
  in
  match check with
  | None -> write_baseline file snap
  | Some threshold -> (
    let reference = read_baseline file in
    if
      not
        (validate_bench_release file reference
        && validate_bench_jobs file reference jobs)
    then fail ();
    match
      Obs.Snapshot.compare_against ~threshold ~reference:(filter reference)
        snap
    with
    | [] -> pf "  [check ok: within +%.0f%% of %s]@." (100. *. threshold) file
    | mismatches ->
      pp_mismatches file threshold mismatches;
      fail ())

let bench_metrics ?check quick jobs =
  header
    (Printf.sprintf
       "Metrics engine: seed-style sequential vs fused CSR (jobs = 1 and %d)"
       jobs);
  let cases =
    if quick then [ (200, 40.) ] else [ (200, 40.); (500, 30.); (1000, 25.) ]
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Obs.add c_bench_jobs jobs;
  if release_build then Obs.add c_bench_release 1;
  let checks =
    List.map
      (fun (n, radius) ->
        let rng = Wireless.Rand.create 77L in
        let pts, _ =
          Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
            ~max_attempts:5000
        in
        let snap = (Core.Backbone.build pts ~radius).Core.Backbone.snap in
        let base = snap.Core.Shard.udg and sub = snap.Core.Shard.pldel' in
        pf "n = %-5d R = %-4g (UDG %d edges, LDel(ICDS') %d edges)@." n radius
          (Netgraph.Csr.edge_count base)
          (Netgraph.Csr.edge_count sub);
        let seed =
          Obs.span
            (Printf.sprintf "bench.metrics.seed.n%d" n)
            (fun () ->
              let l_avg, l_max, h_avg, h_max =
                Seed_metrics.stretch_factors ~base ~sub pts
              in
              let p_avg, p_max =
                Seed_metrics.power_stretch ~base ~sub pts ~beta:2.
              in
              (l_avg, l_max, h_avg, h_max, p_avg, p_max))
        in
        let fused j =
          Obs.span
            (Printf.sprintf "bench.metrics.fused.j%d.n%d" j n)
            (fun () ->
              match
                Netgraph.Metrics.combined_stretch ~jobs:j ~beta:2. ~base pts
                  [ ("LDel(ICDS')", sub) ]
              with
              | [ (_, c) ] ->
                let s = c.Netgraph.Metrics.c_stretch in
                let p_avg, p_max =
                  Option.get c.Netgraph.Metrics.c_power
                in
                ( s.Netgraph.Metrics.len_avg,
                  s.Netgraph.Metrics.len_max,
                  s.Netgraph.Metrics.hop_avg,
                  s.Netgraph.Metrics.hop_max,
                  p_avg,
                  p_max )
              | _ -> assert false (* fused returns one cell per sub *))
        in
        let f1 = fused 1 in
        let fj = if jobs > 1 then fused jobs else f1 in
        (* the engine must agree with its predecessor: maxima are
           grouping-insensitive, so exactly; averages only differ in
           summation order, so to 1e-9 relative *)
        let close a b = abs_float (a -. b) <= 1e-9 *. Float.max 1. (abs_float b) in
        let agree (la, lm, ha, hm, pa, pm) (la', lm', ha', hm', pa', pm') =
          lm = lm' && hm = hm' && pm = pm' && close la la' && close ha ha'
          && close pa pa'
        in
        if not (agree seed f1 && agree seed fj) then
          failwith
            (Printf.sprintf "metrics bench: results diverge at n = %d" n);
        (n, seed))
      cases
  in
  let snap = Obs.Snapshot.capture () in
  let seconds path =
    match
      List.find_opt
        (fun (sp : Obs.Snapshot.span_stats) -> sp.Obs.Snapshot.path = path)
        snap.Obs.Snapshot.spans
    with
    | Some sp -> sp.Obs.Snapshot.seconds
    | None -> nan
  in
  pf "@.%-8s %10s %10s %10s %8s %8s@." "n" "seed (s)" "fused (s)"
    (Printf.sprintf "j=%d (s)" jobs) "x fused" "x par";
  List.iter
    (fun (n, _) ->
      let ts = seconds (Printf.sprintf "bench.metrics.seed.n%d" n) in
      let t1 = seconds (Printf.sprintf "bench.metrics.fused.j%d.n%d" 1 n) in
      let tj =
        if jobs > 1 then
          seconds (Printf.sprintf "bench.metrics.fused.j%d.n%d" jobs n)
        else t1
      in
      pf "%-8d %10.3f %10.3f %10.3f %8.2f %8.2f@." n ts t1 tj (ts /. t1)
        (ts /. tj))
    checks;
  pf "(all variants returned identical stretch results)@.";
  gate ~filter:top_level_spans ~was ~jobs "BENCH_metrics.json" snap check;
  Obs.set_enabled was

(* ------------------------------------------------------------------ *)
(* Construction pipeline benchmark                                     *)
(* ------------------------------------------------------------------ *)

(* The protocol leg: [Protocol.run], the message-level construction
   behind Figures 10 and 12 and the oracle of the Shard kernels, once
   over the Section IV grid (n = 20..100 at R = 60, R = 20..60 at
   n = 500, one deployment per point).  Its distsim message and round
   counters are gated exactly with the pipeline's; two absolute gates
   hold on every instance, with or without --check: the protocol's
   PLDel(ICDS) equals the centralized snapshot's, and every phase stays
   within its round budget, the paper's O(1) rounds.  Connectors,
   status and LDel run a fixed schedule (elections decided in rounds
   1, 2 and 4; one broadcast; rounds 0-4), plus the silent round that
   ends a run.  The smallest-ID clustering has none: its rounds follow
   the longest chain of decreasing ids, 4-12 on this grid over 40
   seeds, so its budget is a constant 16. *)
type protocol_leg = {
  instances : int;
  phases : (string * int * int * int) list;
      (* phase, most rounds on any instance, budget, messages *)
  violations : string list;
}

let protocol_budgets = List.combine Core.Protocol.phases [ 16; 6; 2; 5 ]

let protocol_leg () =
  let grid =
    List.map (fun n -> (n, 60.)) [ 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
    @ List.map
        (fun r -> (500, r))
        [ 20.; 25.; 30.; 35.; 40.; 45.; 50.; 55.; 60. ]
  in
  (* drawing the deployments and the centralized reference is not the
     leg's work: they run unobserved, so the leg's counters and spans
     are the protocol's alone *)
  let unobserved f =
    let was = Obs.enabled () in
    Obs.set_enabled false;
    Fun.protect ~finally:(fun () -> Obs.set_enabled was) f
  in
  let cfg = { Core.Experiments.default with Core.Experiments.instances = 1 } in
  let insts =
    unobserved (fun () ->
        List.map
          (fun (n, radius) -> (n, radius, List.hd (instances cfg n radius)))
          grid)
  in
  (* GC sampling charges each phase span its minor words; the totals
     become ungated gauges *)
  let sampling = !Obs.gc_gauges in
  Obs.set_gc_sampling true;
  let runs =
    Fun.protect
      ~finally:(fun () -> Obs.set_gc_sampling sampling)
      (fun () ->
        Obs.span "bench.pipeline.protocol" (fun () ->
            List.map (fun (_, radius, pts) -> Core.Protocol.run pts ~radius) insts))
  in
  List.iter
    (fun phase ->
      Obs.set_gauge
        (Obs.gauge ("bench.pipeline.protocol." ^ phase ^ ".minor_words"))
        (Obs.span_minor_words ("bench.pipeline.protocol/protocol/" ^ phase)))
    Core.Protocol.phases;
  let rounds = Array.make 4 0 and messages = Array.make 4 0 in
  let violations = ref [] in
  let violation fmt = Printf.ksprintf (fun v -> violations := v :: !violations) fmt in
  List.iter2
    (fun (n, radius, pts) (pr : Core.Protocol.result) ->
      let centralized =
        unobserved (fun () -> (Core.Shard.pipeline pts ~radius).Core.Shard.pldel)
      in
      if
        Netgraph.Csr.edges centralized
        <> Netgraph.Csr.edges pr.Core.Protocol.ldel_graph
      then
        violation "protocol PLDel(ICDS) differs from the centralized one at \
                   n = %d, R = %g" n radius;
      List.iteri
        (fun i ((phase, budget), (st : Distsim.Engine.stats)) ->
          let r = st.Distsim.Engine.rounds in
          if r > budget then
            violation "protocol phase %s took %d rounds (budget %d) at n = %d, \
                       R = %g" phase r budget n radius;
          rounds.(i) <- max rounds.(i) r;
          messages.(i) <- messages.(i) + Distsim.Engine.total_sent st)
        (List.combine protocol_budgets
           Core.Protocol.
             [ pr.stats_cluster; pr.stats_connector; pr.stats_status;
               pr.stats_ldel ]))
    insts runs;
  {
    instances = List.length insts;
    phases =
      List.mapi
        (fun i (phase, budget) -> (phase, rounds.(i), budget, messages.(i)))
        protocol_budgets;
    violations = List.rev !violations;
  }

(* The sharded CSR pipeline ([Backbone.snapshot]: tiles, row filters,
   sealed snapshots) at
   constant density.  Each compared size is built three ways — one
   tile (the serial build), the [Auto] tiling at j = 1, and [Auto] at
   j = J — and all three are asserted bit-identical before any timing
   is reported.  The jobs column is reported honestly and is NOT
   expected to beat j = 1 without additional cores. *)
let bench_pipeline ?check quick jobs =
  header
    (Printf.sprintf "Construction pipeline: sharded CSR (jobs = 1 and %d)"
       jobs);
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Obs.add c_bench_jobs jobs;
  if release_build then Obs.add c_bench_release 1;
  (* constant density: side = 10 sqrt n, R = 20 => average degree
     ~12.6 at every size *)
  let radius = 20. in
  let deploy n =
    let rng = Wireless.Rand.create 4242L in
    Wireless.Deploy.uniform rng ~n ~side:(10. *. sqrt (float_of_int n))
  in
  let build name partition j n pts =
    Obs.span
      (Printf.sprintf "bench.pipeline.%s.n%d" name n)
      (fun () ->
        Core.Backbone.snapshot
          {
            Core.Backbone.Config.default with
            Core.Backbone.Config.radius;
            partition;
            jobs = j;
          }
          pts)
  in
  let compare_cases = if quick then [ 2_000; 5_000 ] else [ 20_000; 50_000 ] in
  let n_big = if quick then 20_000 else 1_000_000 in
  let module S = Core.Shard in
  let count name n v =
    Obs.add (Obs.counter (Printf.sprintf "bench.pipeline.%s.n%d" name n)) v
  in
  let record_counts n (s : S.snapshot) =
    count "udg_edges" n (Netgraph.Csr.edge_count s.S.udg);
    count "cds_edges" n (Netgraph.Csr.edge_count s.S.cds);
    count "pldel_edges" n (Netgraph.Csr.edge_count s.S.pldel);
    count "pldel'_edges" n (Netgraph.Csr.edge_count s.S.pldel')
  in
  (* CDS': the snapshot keeps no copy, so compare what it filters to *)
  let primed (s : S.snapshot) = S.primed s.S.roles s.S.icds' s.S.cds in
  let same (a : S.snapshot) (b : S.snapshot) =
    let e = Netgraph.Csr.edges in
    a.S.roles = b.S.roles
    && e a.S.udg = e b.S.udg
    && e (primed a) = e (primed b)
    && e a.S.pldel = e b.S.pldel
    && e a.S.pldel' = e b.S.pldel'
  in
  let timed = ref [] in
  List.iter
    (fun n ->
      let pts = deploy n in
      let serial = build "tiles1" (Core.Backbone.Config.Tiles 1) 1 n pts in
      let auto j =
        build (Printf.sprintf "sharded.j%d" j) Core.Backbone.Config.Auto j n pts
      in
      let s1 = auto 1 in
      let sj = if jobs > 1 then auto jobs else s1 in
      (* bit-identity gates: the timings below only compare like with
         like if every tiling and job count built the same structures *)
      if not (same serial s1) then
        failwith
          (Printf.sprintf "pipeline bench: Auto diverges from Tiles 1 at n = %d" n);
      if not (same s1 sj) then
        failwith
          (Printf.sprintf "pipeline bench: jobs=%d diverges at n = %d" jobs n);
      record_counts n s1;
      pf "n = %-8d UDG %d edges, PLDel %d edges: identical across variants@."
        n
        (Netgraph.Csr.edge_count s1.S.udg)
        (Netgraph.Csr.edge_count s1.S.pldel);
      timed := (n, true) :: !timed)
    compare_cases;
  (* the million-node run: the Auto tiling at j = 1 only, so the row
     reports absolute wall time *)
  let big = build "sharded.j1" Core.Backbone.Config.Auto 1 n_big (deploy n_big) in
  record_counts n_big big;
  pf "n = %-8d UDG %d edges, PLDel %d edges (Auto, j = 1 only)@." n_big
    (Netgraph.Csr.edge_count big.S.udg)
    (Netgraph.Csr.edge_count big.S.pldel);
  timed := (n_big, false) :: !timed;
  let proto = protocol_leg () in
  let snap = Obs.Snapshot.capture () in
  let seconds path =
    match
      List.find_opt
        (fun (sp : Obs.Snapshot.span_stats) -> sp.Obs.Snapshot.path = path)
        snap.Obs.Snapshot.spans
    with
    | Some sp -> sp.Obs.Snapshot.seconds
    | None -> nan
  in
  pf "@.%-9s %12s %12s %12s@." "n" "tiles=1 (s)" "auto j=1 (s)"
    (Printf.sprintf "j=%d (s)" jobs);
  List.iter
    (fun (n, compared) ->
      let t1 = seconds (Printf.sprintf "bench.pipeline.sharded.j%d.n%d" 1 n) in
      if compared then begin
        let ts = seconds (Printf.sprintf "bench.pipeline.tiles1.n%d" n) in
        let tj =
          if jobs > 1 then
            seconds (Printf.sprintf "bench.pipeline.sharded.j%d.n%d" jobs n)
          else t1
        in
        pf "%-9d %12.3f %12.3f %12.3f@." n ts t1 tj
      end
      else pf "%-9d %12s %12.3f %12s@." n "-" t1 "-")
    (List.rev !timed);
  pf "(outputs verified bit-identical across tilings and job counts)@.";
  pf "@.protocol leg: %d Section IV instances@." proto.instances;
  pf "%-11s %8s %8s %10s %10s %14s@." "phase" "rounds" "budget" "messages"
    "time (s)" "minor words";
  List.iter
    (fun (phase, rounds, budget, messages) ->
      pf "%-11s %8d %8d %10d %10.3f %14.0f@." phase rounds budget messages
        (seconds ("bench.pipeline.protocol/protocol/" ^ phase))
        (Obs.span_minor_words ("bench.pipeline.protocol/protocol/" ^ phase)))
    proto.phases;
  (match proto.violations with
  | [] ->
    pf "  [claim ok: PLDel(ICDS) = centralized, every phase within budget]@."
  | vs ->
    List.iter (fun v -> pf "  [claim FAILED: %s]@." v) vs;
    Obs.set_enabled was;
    exit 1);
  (* counters exact (the determinism edge counts and the protocol's
     message and round counts), top-level per-case spans within the
     threshold *)
  gate ~filter:top_level_spans ~was ~jobs "BENCH_pipeline.json" snap check;
  Obs.set_enabled was

(* ------------------------------------------------------------------ *)
(* Route-query serving benchmark                                       *)
(* ------------------------------------------------------------------ *)

(* The serving layer under load: one epoch-pinned snapshot, a seeded
   hotspot workload, and the zero-allocation query kernels.  The
   headline is queries/sec.  Three runs: closed-loop jobs = 1 and
   jobs = J with latency sampling off (throughput + the allocation
   probe), then a shorter open-loop run with latency sampling for the
   tail percentiles.  Per-query results are asserted bit-identical
   across the job counts before any number is reported; the jobs
   column is honest — on a one-CPU box it shows ~1x, the machinery is
   validated by the determinism assertion either way. *)
let bench_serve ?check quick jobs =
  header
    (Printf.sprintf
       "Route-query serving: epoch store + concurrent readers (jobs = 1 and \
        %d)"
       jobs);
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Obs.add c_bench_jobs jobs;
  if release_build then Obs.add c_bench_release 1;
  let n = if quick then 5_000 else 100_000 in
  let q_count = if quick then 20_000 else 100_000 in
  (* constant density, radius comfortably above the connectivity
     threshold so GFG's delivery guarantee applies *)
  let radius = 25. in
  let side = 10. *. sqrt (float_of_int n) in
  let rng = Wireless.Rand.create 4242L in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side ~radius ~max_attempts:50
  in
  let snap =
    Obs.span
      (Printf.sprintf "bench.serve.build.n%d" n)
      (fun () ->
        Core.Backbone.snapshot
          {
            Core.Backbone.Config.default with
            Core.Backbone.Config.radius;
            jobs = 1;
          }
          pts)
  in
  let store = Serve.Store.create snap in
  let mix = { Serve.Workload.default_mix with Serve.Workload.stretch = 0.002 } in
  let skew = Serve.Workload.Hotspot { nodes = 64; frac = 0.3 } in
  let w = Serve.Workload.generate ~seed:99L ~n ~count:q_count ~mix ~skew () in
  pf "n = %d nodes, %d queries, mix %s, skew %s@." n q_count
    (Serve.Workload.mix_to_string mix)
    (Serve.Workload.skew_to_string skew);
  let serve label jobs latency w =
    Obs.span
      (Printf.sprintf "bench.serve.%s.n%d" label n)
      (fun () -> Serve.Engine.run ~jobs ~batch:4096 ~latency ~store w)
  in
  let r1 = serve "q.j1" 1 false w in
  let rj =
    if jobs > 1 then serve (Printf.sprintf "q.j%d" jobs) jobs false w else r1
  in
  (* determinism gate: the throughput comparison below is only
     meaningful if both job counts served exactly the same answers
     (compare, not =, so NaN stretch slots compare equal) *)
  if
    not
      (r1.Serve.Engine.hops = rj.Serve.Engine.hops
      && r1.Serve.Engine.epoch = rj.Serve.Engine.epoch
      && compare r1.Serve.Engine.stretch rj.Serve.Engine.stretch = 0)
  then
    failwith
      (Printf.sprintf "serve bench: jobs=%d diverges from jobs=1 at n = %d"
         jobs n);
  (* scrape-while-serving overhead: the same closed loop again at
     jobs = 1, with the exposition listener live and a client thread
     hammering /metrics for the whole run.  The listener only reads
     the registry, so results must stay bit-identical; the qps delta
     against the unscraped run is the price of sharing the domain
     with a scraper, reported as gauges (wall-clock, not gated). *)
  let scrape_stop = Atomic.make false in
  let scrape_n = Atomic.make 0 in
  let h = Obs.Export.start ~port:0 () in
  let port = Obs.Export.port h in
  let scraper =
    Thread.create
      (fun () ->
        while not (Atomic.get scrape_stop) do
          (match Obs.Export.get ~port "/metrics" with
          | _ -> Atomic.incr scrape_n
          | exception _ -> ());
          Thread.yield ()
        done)
      ()
  in
  let r_scrape = serve "q.scrape" 1 false w in
  Atomic.set scrape_stop true;
  Thread.join scraper;
  Obs.Export.stop h;
  if
    not
      (r1.Serve.Engine.hops = r_scrape.Serve.Engine.hops
      && r1.Serve.Engine.epoch = r_scrape.Serve.Engine.epoch
      && compare r1.Serve.Engine.stretch r_scrape.Serve.Engine.stretch = 0)
  then
    failwith
      (Printf.sprintf
         "serve bench: results diverge under scrape load at n = %d" n);
  (* open-loop latency run: a tenth of the queries at a fixed arrival
     rate, latency sampling on *)
  let w_lat =
    Serve.Workload.generate ~seed:99L ~n ~count:(q_count / 10) ~mix ~skew
      ~rate:(if quick then 20_000. else 5_000.)
      ()
  in
  let r_lat = serve "lat.j1" 1 true w_lat in
  (* per kind: the queries of one kind alone, closed loop at jobs = 1,
     once without latency sampling (throughput and allocation) and
     once with it (the tail of the service time) *)
  let kinds =
    List.init Serve.Workload.kinds (fun k ->
        let qs =
          Array.of_list
            (List.filter
               (fun q -> w.Serve.Workload.kind.(q) = k)
               (List.init q_count Fun.id))
        in
        let pick a = Array.map (fun q -> a.(q)) qs in
        let sub =
          {
            w with
            Serve.Workload.count = Array.length qs;
            kind = pick w.Serve.Workload.kind;
            src = pick w.Serve.Workload.src;
            dst = pick w.Serve.Workload.dst;
          }
        in
        let name = Serve.Workload.op_name k in
        let r = serve name 1 false sub in
        let lat = serve (name ^ ".lat") 1 true sub in
        ( name,
          Serve.Engine.summarize r,
          (Serve.Engine.summarize lat).Serve.Engine.s_lat_p99_us ))
  in
  let s1 = Serve.Engine.summarize r1
  and sj = Serve.Engine.summarize rj
  and ss = Serve.Engine.summarize r_scrape
  and sl = Serve.Engine.summarize r_lat in
  let scrapes = Atomic.get scrape_n in
  let overhead_pct =
    if s1.Serve.Engine.s_qps > 0. then
      100. *. (1. -. (ss.Serve.Engine.s_qps /. s1.Serve.Engine.s_qps))
    else nan
  in
  Obs.set_gauge
    (Obs.gauge "bench.serve.scrape.count")
    (float_of_int scrapes);
  Obs.set_gauge (Obs.gauge "bench.serve.scrape.overhead_pct") overhead_pct;
  (* deterministic result counters for the regression gate: any change
     to the kernels, the workload generator or the store shows up as
     an exact-match violation here *)
  let count name v =
    Obs.add (Obs.counter (Printf.sprintf "bench.serve.%s.n%d" name n)) v
  in
  let hops_total =
    Array.fold_left (fun acc h -> if h > 0 then acc + h else acc) 0
      r1.Serve.Engine.hops
  in
  count "queries" q_count;
  count "delivered" s1.Serve.Engine.s_delivered;
  count "hops_total" hops_total;
  List.iter
    (fun (name, (s : Serve.Engine.summary), p99) ->
      count (name ^ ".queries") s.Serve.Engine.s_queries;
      count (name ^ ".delivered") s.Serve.Engine.s_delivered;
      let gauge key v =
        Obs.set_gauge
          (Obs.gauge (Printf.sprintf "bench.serve.%s.%s.n%d" name key n))
          v
      in
      gauge "qps" s.Serve.Engine.s_qps;
      gauge "lat_p99_us" p99;
      gauge "minor_words_per_query" s.Serve.Engine.s_minor_per_query)
    kinds;
  pf "@.%-10s %14s %12s %10s@." "variant" "queries/s" "elapsed(s)" "speedup";
  pf "%-10s %14.0f %12.3f %10s@." "jobs=1" s1.Serve.Engine.s_qps
    r1.Serve.Engine.elapsed_s "1.00";
  if jobs > 1 then
    pf "%-10s %14.0f %12.3f %10.2f@."
      (Printf.sprintf "jobs=%d" jobs)
      sj.Serve.Engine.s_qps rj.Serve.Engine.elapsed_s
      (sj.Serve.Engine.s_qps /. s1.Serve.Engine.s_qps);
  pf "%-10s %14.0f %12.3f %10.2f@." "scraped"
    ss.Serve.Engine.s_qps r_scrape.Serve.Engine.elapsed_s
    (ss.Serve.Engine.s_qps /. s1.Serve.Engine.s_qps);
  pf
    "scrape load: %d /metrics scrapes during the run, %.1f%% qps overhead \
     vs unscraped@."
    scrapes overhead_pct;
  pf "delivered:  %d/%d   hops p50 %.0f p99 %.0f   stretch p50 %.3f@."
    s1.Serve.Engine.s_delivered q_count s1.Serve.Engine.s_hop_p50
    s1.Serve.Engine.s_hop_p99 s1.Serve.Engine.s_stretch_p50;
  pf
    "open loop at %g/s: latency p50 %.1f us  p99 %.1f us  p999 %.1f us (%d \
     queries)@."
    (if quick then 20_000. else 5_000.)
    sl.Serve.Engine.s_lat_p50_us sl.Serve.Engine.s_lat_p99_us
    sl.Serve.Engine.s_lat_p999_us (q_count / 10);
  pf "allocation: %.2f minor words/query at jobs = 1 (steady-state scratch)@."
    s1.Serve.Engine.s_minor_per_query;
  pf "drops:      %s@." (Serve.Engine.drops_line s1);
  pf "@.%-8s %8s %10s %12s %12s %12s@." "kind" "queries" "delivered"
    "queries/s" "p99 (us)" "words/query";
  List.iter
    (fun (name, (s : Serve.Engine.summary), p99) ->
      pf "%-8s %8d %10d %12.0f %12.1f %12.2f@." name s.Serve.Engine.s_queries
        s.Serve.Engine.s_delivered s.Serve.Engine.s_qps p99
        s.Serve.Engine.s_minor_per_query)
    kinds;
  pf "(per-query results verified bit-identical across job counts)@.";
  (* the paper's claim, an absolute bound: GFG over the planar backbone
     delivers every query on a connected deployment *)
  let undelivered = ref 0 and first = ref None in
  Array.iteri
    (fun q h ->
      let k = w.Serve.Workload.kind.(q) in
      if
        h < 0
        && (k = Serve.Workload.k_gfg || k = Serve.Workload.k_stretch)
      then begin
        incr undelivered;
        if Option.is_none !first then
          first := Some (w.Serve.Workload.src.(q), w.Serve.Workload.dst.(q))
      end)
    (Array.sub r1.Serve.Engine.hops 0 q_count);
  (match !first with
  | None -> pf "  [claim ok: every gfg and stretch query delivered]@."
  | Some (src, dst) ->
    pf
      "  [claim FAILED: %d gfg/stretch queries undelivered on a connected \
       deployment, the first %d -> %d]@."
      !undelivered src dst;
    Obs.set_enabled was;
    exit 1);
  let osnap = Obs.Snapshot.capture () in
  (* Gate on everything deterministic — counters, dist counts and the
     hop histogram bucket-for-bucket — and the top-level spans.  The
     latency histogram's values are wall-clock, so its bucket shape
     varies run to run: like the nested build-stage spans, it stays in
     the committed JSON for inspection but is not gated. *)
  let filter reference =
    let r = top_level_spans reference in
    {
      r with
      Obs.Snapshot.hists =
        List.filter
          (fun (name, _) -> name <> "serve.latency_us.hist")
          r.Obs.Snapshot.hists;
    }
  in
  gate ~filter ~was ~jobs "BENCH_serve.json" osnap check;
  Obs.set_enabled was

(* ------------------------------------------------------------------ *)
(* Causal analyzer throughput                                          *)
(* ------------------------------------------------------------------ *)

(* Trace one full protocol run, then time Obs.Causal.analyze over the
   merged stream: the post-run DAG reconstruction must stay cheap
   relative to the run it explains, and the run itself must be
   causally clean. *)
let bench_causal quick =
  header "Causal analyzer: happens-before DAG over a traced protocol run";
  let n = if quick then 150 else 400 in
  let rng = Wireless.Rand.create 2002L in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius:60.
      ~max_attempts:5000
  in
  let was = Obs.enabled () in
  Obs.set_enabled true;
  Obs.Trace.start ~capacity:(1 lsl 21) ();
  let t0 = Unix.gettimeofday () in
  ignore (Core.Protocol.run pts ~radius:60.);
  let t_run = Unix.gettimeofday () -. t0 in
  Obs.Trace.stop ();
  Obs.set_enabled was;
  let evs = Obs.Trace.events () in
  let n_ev = List.length evs in
  let t1 = Unix.gettimeofday () in
  let r = Obs.Causal.analyze evs in
  let t_an = Unix.gettimeofday () -. t1 in
  pf "protocol run (n=%d): %.3fs, %d trace events@." n t_run n_ev;
  pf "analyze: %.3fs (%.2f Mev/s, %.0f%% of the traced run)@." t_an
    (float_of_int n_ev /. t_an /. 1e6)
    (100. *. t_an /. t_run);
  pf "  %-22s %8s %6s %7s@." "phase" "events" "depth" "rounds";
  List.iter
    (fun (ph : Obs.Causal.phase_report) ->
      pf "  %-22s %8d %6d %7d@." ph.Obs.Causal.ph_phase
        ph.Obs.Causal.ph_events ph.Obs.Causal.ph_depth ph.Obs.Causal.ph_rounds)
    r.Obs.Causal.r_phases;
  pf "end-to-end critical path: %d hops, %d rounds@." r.Obs.Causal.r_depth
    r.Obs.Causal.r_rounds;
  if r.Obs.Causal.r_violations <> [] then begin
    pf "causality violations in a stamped run: %d@."
      (List.length r.Obs.Causal.r_violations);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "Bechamel micro-benchmarks (time per run)";
  let open Bechamel in
  let open Toolkit in
  let rng = Wireless.Rand.create 31337L in
  let pts100, _ =
    Wireless.Deploy.connected_uniform rng ~n:100 ~side:200. ~radius:60.
      ~max_attempts:2000
  in
  let pts500 = Wireless.Deploy.uniform rng ~n:500 ~side:200. in
  let udg100 = Wireless.Udg.build pts100 ~radius:60. in
  let bb100 = Core.Backbone.build pts100 ~radius:60. in
  let planar = Core.Backbone.ldel_full bb100 in
  let tests =
    [
      (* one Test.make per paper artifact's workload, plus substrates *)
      Test.make ~name:"table1: backbone build (n=100)"
        (Staged.stage (fun () -> Core.Backbone.build pts100 ~radius:60.));
      Test.make ~name:"fig8/9: quality rows (n=100)"
        (Staged.stage (fun () -> Core.Quality.rows bb100));
      Test.make ~name:"fig10/12: protocol run (n=100)"
        (Staged.stage (fun () -> Core.Protocol.run pts100 ~radius:60.));
      Test.make ~name:"udg build (n=500)"
        (Staged.stage (fun () -> Wireless.Udg.build pts500 ~radius:30.));
      Test.make ~name:"delaunay (n=500)"
        (Staged.stage (fun () -> Delaunay.Triangulation.triangulate pts500));
      Test.make ~name:"ldel on udg (n=100)"
        (Staged.stage (fun () -> Core.Ldel.build udg100 pts100 ~radius:60.));
      Test.make ~name:"gfg route (n=100)"
        (Staged.stage (fun () -> Core.Routing.gfg planar pts100 ~src:0 ~dst:99));
      Test.make ~name:"mis clustering (n=100)"
        (Staged.stage (fun () -> Core.Mis.compute udg100));
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let witnesses = Instance.[ monotonic_clock ] in
  pf "%-36s %16s@." "benchmark" "ns/run";
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg witnesses elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ t ] -> pf "%-36s %16.0f@." (Test.Elt.name elt) t
          | Some _ | None -> pf "%-36s %16s@." (Test.Elt.name elt) "n/a")
        (Test.elements test))
    tests

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let args = List.filter (fun a -> a <> "--quick") args in
  with_stats := List.mem "--stats" args;
  let args = List.filter (fun a -> a <> "--stats") args in
  let do_check = List.mem "--check" args in
  let args = List.filter (fun a -> a <> "--check") args in
  let jobs = ref (Netgraph.Pool.default_jobs ()) in
  let check_threshold = ref 0.5 in
  let rec take_out acc = function
    | "--out" :: dir :: rest ->
      out_dir := Some dir;
      take_out acc rest
    | "--jobs" :: j :: rest ->
      jobs := max 1 (int_of_string j);
      take_out acc rest
    | "--check-threshold" :: t :: rest ->
      check_threshold := float_of_string t;
      take_out acc rest
    | x :: rest -> take_out (x :: acc) rest
    | [] -> List.rev acc
  in
  let args = take_out [] args in
  if do_check && quick then begin
    prerr_endline
      "bench: --check compares against the committed full-size \
       BENCH_*.json baselines; it cannot be combined with --quick";
    exit 2
  end;
  let check = if do_check then Some !check_threshold else None in
  if !with_stats then Obs.set_enabled true;
  let cfg =
    if quick then
      { Core.Experiments.quick with instances = 2; jobs = !jobs }
    else { Core.Experiments.default with jobs = !jobs }
  in
  (* the n = 500 radius sweeps are the heavy ones: fewer vertex sets.
     The quick sweep's n = 150 keeps the full sweep's density by
     shrinking the square, so R = 20 stays above the connectivity
     threshold as it is at n = 500 in the 200 x 200 square. *)
  let n_sweep = if quick then 150 else 500 in
  let cfg_sweep =
    {
      cfg with
      Core.Experiments.instances = (if quick then 2 else 5);
      side = cfg.Core.Experiments.side *. sqrt (float_of_int n_sweep /. 500.);
    }
  in
  let all = args = [] in
  let want name = all || List.mem name args in
  (* with --stats each artifact gets its own isolated work account:
     counters are reset before and reported after the run *)
  let artifact name f =
    if want name then begin
      if !with_stats then Obs.reset ();
      f ();
      if !with_stats then begin
        pf "@.-- %s: work counters and stage spans --@." name;
        Obs.report (Obs.pretty Format.std_formatter)
      end
    end
  in
  let artifacts =
    [
      ("table1", fun () -> table1 cfg);
      ("fig8", fun () -> fig8 cfg);
      ("fig9", fun () -> fig9 cfg);
      ("fig10", fun () -> fig10 cfg);
      ("fig11", fun () -> fig11 cfg_sweep n_sweep);
      ("fig12", fun () -> fig12 cfg_sweep n_sweep);
      ( "ablation",
        fun () ->
          ablation_clustering cfg;
          ablation_connectors cfg;
          ablation_ldel_scope cfg;
          ablation_routing cfg;
          extension_power_stretch cfg;
          extension_broadcast cfg;
          extension_packet_level cfg;
          extension_quasi_udg cfg;
          extension_lifetime cfg;
          extension_bounds cfg );
      ("metrics", fun () -> bench_metrics ?check quick !jobs);
      ("pipeline", fun () -> bench_pipeline ?check quick !jobs);
      ("serve", fun () -> bench_serve ?check quick !jobs);
      ("causal", fun () -> bench_causal quick);
      ("micro", micro);
    ]
  in
  (* anything left that names no artifact is a misspelt flag or
     artifact, not a filter that quietly selects nothing *)
  (match List.filter (fun a -> not (List.mem_assoc a artifacts)) args with
  | [] -> ()
  | unknown ->
    Format.eprintf
      "bench: unknown argument(s) %s@.flags: --quick --stats --check --out DIR \
       --jobs N --check-threshold T@.artifacts: %s@."
      (String.concat " " unknown)
      (String.concat " " (List.map fst artifacts));
    exit 2);
  List.iter (fun (name, f) -> artifact name f) artifacts

(* spanner — command-line front end for the geometric-spanner library.

   Subcommands:
     generate   draw a node deployment and print/save it as CSV
     build      construct the backbone structures and print statistics
     measure    Table-I style quality rows for one instance
     route      route a packet between two nodes
     protocol   run the distributed protocol and report message costs
     dump       emit a structure's edge list (for plotting)
     broadcast  compare network-wide broadcast relay disciplines
     lifetime   simulate battery drain and clusterhead rotation
     experiment regenerate a table/figure from the paper
     trace      audit protocol message complexity under the event tracer
     monitor    re-check the paper's invariants every round under mobility
     serve      answer route queries from epoch-pinned snapshots at rate

   Deployments are deterministic given --seed; a CSV written by
   `generate` can be fed back to every other subcommand via --input. *)

open Cmdliner
module Config = Core.Backbone.Config

(* ---------------- shared options ---------------- *)

let stats =
  let doc =
    "After the run, report observability counters (predicate calls, exact \
     fallbacks, grid queries, Delaunay insertions, protocol messages) and \
     per-stage timing spans to stderr.  $(docv) is pretty, json or csv; \
     bare $(b,--stats) means pretty.  Counter values are deterministic for \
     a fixed --seed; span durations are wall-clock."
  in
  Arg.(
    value
    & opt ~vopt:(Some "pretty") (some string) None
    & info [ "stats" ] ~docv:"FORMAT" ~doc)

(* Run [f] with the observability layer on and report to stderr in the
   requested format.  Returns the exit code of [f], or 2 on an unknown
   format. *)
let with_stats fmt_name f =
  match fmt_name with
  | None -> f ()
  | Some fmt_name -> (
    match Obs.named_sink Format.err_formatter fmt_name with
    | None ->
      Printf.eprintf "unknown stats format %S (expected pretty, json or csv)\n"
        fmt_name;
      2
    | Some sink ->
      Obs.set_enabled true;
      let code = f () in
      Obs.report sink;
      code)

let trace_file =
  let doc =
    "Record a structured event trace during the run (timing spans, counter \
     deltas, protocol send/deliver events) and write it to $(docv) in \
     Chrome trace-event JSON — loadable in chrome://tracing or Perfetto.  \
     Implies the observability layer is on for the run."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Export a recorded trace as Chrome JSON, then validate the file by
   parsing it back.  Returns 0, or 1 when validation fails. *)
let export_trace ?(flows = []) file evs =
  let oc = open_out file in
  let fmt = Format.formatter_of_out_channel oc in
  Obs.Trace.write_chrome ~flows fmt evs;
  Format.pp_print_flush fmt ();
  close_out oc;
  let ic = open_in_bin file in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Obs.Trace.read_chrome contents with
  | parsed when List.length parsed = List.length evs ->
    Printf.eprintf "trace: wrote %d events to %s%s\n" (List.length evs) file
      (let d = Obs.Trace.dropped () in
       if d > 0 then Printf.sprintf " (%d oldest events dropped)" d else "");
    0
  | parsed ->
    Printf.eprintf "trace: %s round-trip mismatch (%d written, %d parsed)\n"
      file (List.length evs) (List.length parsed);
    1
  | exception Failure msg ->
    Printf.eprintf "trace: %s failed to validate: %s\n" file msg;
    1

let with_trace trace_file f =
  match trace_file with
  | None -> f ()
  | Some file ->
    let was = Obs.enabled () in
    Obs.set_enabled true;
    Obs.Trace.start ~capacity:(1 lsl 20) ();
    let code = f () in
    Obs.Trace.stop ();
    Obs.set_enabled was;
    let vcode = export_trace file (Obs.Trace.events ()) in
    if code <> 0 then code else vcode

let listen_arg =
  let doc =
    "Serve live introspection over HTTP on 127.0.0.1:$(docv) for the \
     duration of the run: $(b,/metrics) (Prometheus text exposition), \
     $(b,/healthz), $(b,/debug/ring) (the flight-recorder ring as JSON) \
     and, under $(b,serve), $(b,/epoch).  Port 0 picks a free port \
     (printed to stderr).  Implies the observability layer is on; \
     $(b,SIGUSR2) dumps the flight recorder to stderr while listening.  \
     Before exit the command scrapes its own endpoint and fails unless \
     the exposition parses and matches the in-process snapshot exactly."
  in
  Arg.(value & opt (some int) None & info [ "listen" ] ~docv:"PORT" ~doc)

(* Run [f] with the exposition listener live, passing it the bound
   port.  On the way out, scrape our own /metrics, re-parse the text
   and cross-check every value against a fresh in-process snapshot —
   exit 1 on any disagreement, in the export_trace self-validation
   tradition.  Safe because the registry is single-writer: once [f]
   returns, the main thread records nothing more, so the scrape the
   listener serves and the snapshot we capture here must agree. *)
let with_listen ?health ?routes listen f =
  match listen with
  | None -> f None
  | Some port ->
    Obs.set_enabled true;
    Obs.Recorder.arm_gc_alarm ();
    let h = Obs.Export.start ?health ?routes ~port () in
    let port = Obs.Export.port h in
    Printf.eprintf "listen: serving http://127.0.0.1:%d/metrics\n%!" port;
    let prev =
      Sys.signal Sys.sigusr2
        (Sys.Signal_handle
           (fun _ ->
             Obs.Recorder.dump Format.err_formatter ();
             Format.pp_print_flush Format.err_formatter ()))
    in
    Fun.protect
      ~finally:(fun () ->
        Sys.set_signal Sys.sigusr2 prev;
        Obs.Recorder.disarm_gc_alarm ();
        Obs.Export.stop h)
    @@ fun () ->
    let code = f (Some port) in
    let scrape_code =
      match Obs.Export.get ~port "/metrics" with
      | exception e ->
        Printf.eprintf "listen: final scrape failed: %s\n"
          (Printexc.to_string e);
        1
      | status, body -> (
        if not (String.length status >= 12 && String.sub status 9 3 = "200")
        then begin
          Printf.eprintf "listen: /metrics returned %S\n" status;
          1
        end
        else
          match Obs.Export.parse_exposition body with
          | exception Failure msg ->
            Printf.eprintf "listen: /metrics failed to parse: %s\n" msg;
            1
          | samples -> (
            match
              Obs.Export.check_snapshot samples (Obs.Snapshot.capture ())
            with
            | [] ->
              Printf.eprintf
                "listen: final scrape ok (%d samples, %d scrapes served)\n"
                (List.length samples)
                (Obs.Export.scrape_count h);
              0
            | errs ->
              List.iter
                (fun e -> Printf.eprintf "listen: scrape mismatch: %s\n" e)
                errs;
              1))
    in
    if code <> 0 then code else scrape_code

let seed =
  let doc = "Random seed for the deployment." in
  Arg.(value & opt int64 2002L & info [ "seed" ] ~docv:"SEED" ~doc)

let nodes =
  let doc = "Number of wireless nodes." in
  Arg.(value & opt int 100 & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let side =
  let doc = "Side of the square deployment region." in
  Arg.(value & opt float 200. & info [ "side" ] ~docv:"S" ~doc)

let radius =
  let doc = "Transmission radius (all nodes share it)." in
  Arg.(value & opt float 60. & info [ "r"; "radius" ] ~docv:"R" ~doc)

let input =
  let doc = "Read the deployment from a CSV file (id,x,y per line)." in
  Arg.(value & opt (some string) None & info [ "input" ] ~docv:"FILE" ~doc)

let connected =
  let doc = "Redraw deployments until the unit disk graph is connected." in
  Arg.(value & flag & info [ "connected" ] ~doc)

let jobs =
  let doc =
    "Worker domains for the stretch metrics (default: the machine's \
     recommended domain count).  Results are bit-identical for any value; \
     only wall-clock time changes."
  in
  Arg.(
    value
    & opt int (Netgraph.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let partition =
  let doc =
    "Construction tiling: $(b,auto) lets the sharded pipeline pick its \
     default (one tile below ~9k nodes), and a positive integer $(docv) \
     uses that many tiles per axis ($(b,1) is the serial build).  With \
     more than one tile, $(b,--jobs) above 1 fans the stages out on a \
     Domain pool.  Every tiling produces bit-identical structures; only \
     construction speed changes."
  in
  let part_conv =
    let parse s =
      match String.lowercase_ascii s with
      | "auto" -> Ok Config.Auto
      | s -> (
        match int_of_string_opt s with
        | Some k when k >= 1 -> Ok (Config.Tiles k)
        | _ ->
          Error
            (`Msg
              (Printf.sprintf "expected auto or a positive tile count, got %S"
                 s)))
    in
    let print fmt = function
      | Config.Auto -> Format.pp_print_string fmt "auto"
      | Config.Tiles k -> Format.pp_print_int fmt k
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt part_conv Config.Auto
    & info [ "partition"; "tiles" ] ~docv:"PART" ~doc)

(* ---------------- deployment I/O ---------------- *)

let load_csv file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | line -> begin
      match String.split_on_char ',' (String.trim line) with
      | [ _id; x; y ] ->
        go (Geometry.Point.make (float_of_string x) (float_of_string y) :: acc)
      | [] | [ "" ] -> go acc
      | _ -> failwith (Printf.sprintf "bad CSV line: %S" line)
    end
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

let save_csv oc pts =
  Array.iteri
    (fun i (p : Geometry.Point.t) -> Printf.fprintf oc "%d,%.6f,%.6f\n" i p.x p.y)
    pts

let deployment ~seed ~n ~side ~radius ~connected ~input =
  match input with
  | Some file -> load_csv file
  | None ->
    let rng = Wireless.Rand.create seed in
    if connected then
      fst
        (Wireless.Deploy.connected_uniform rng ~n ~side ~radius
           ~max_attempts:5000)
    else Wireless.Deploy.uniform rng ~n ~side

(* ---------------- generate ---------------- *)

let generate_cmd =
  let output =
    let doc = "Write the deployment to $(docv) instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run seed n side radius connected output stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected ~input:None in
    (match output with
    | Some file ->
      let oc = open_out file in
      save_csv oc pts;
      close_out oc;
      Printf.printf "wrote %d nodes to %s\n" (Array.length pts) file
    | None -> save_csv stdout pts);
    0
  in
  let doc = "draw a random node deployment" in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ connected $ output $ stats
      $ trace_file)

(* ---------------- build ---------------- *)

let build_cmd =
  let run seed n side radius input jobs partition stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let bb =
      Core.Backbone.run
        { Config.default with Config.radius; jobs; partition }
        pts
    in
    let snap = bb.Core.Backbone.snap in
    let dominators =
      Array.fold_left
        (fun acc r -> if r = Core.Mis.Dominator then acc + 1 else acc)
        0 snap.Core.Shard.roles
    in
    (* every backbone node that is not a dominator was elected *)
    let connectors =
      Array.fold_left
        (fun acc b -> if b then acc + 1 else acc)
        (-dominators) snap.Core.Shard.backbone
    in
    Printf.printf "nodes:       %d\n" (Array.length pts);
    Printf.printf "radius:      %g\n" radius;
    Printf.printf "dominators:  %d\n" dominators;
    Printf.printf "connectors:  %d\n" connectors;
    Printf.printf "%-13s %8s %8s %8s\n" "structure" "edges" "deg_avg" "deg_max";
    List.iter
      (fun (name, g, _) ->
        let d = Netgraph.Metrics.degree_stats g in
        Printf.printf "%-13s %8d %8.2f %8d\n" name d.Netgraph.Metrics.edges
          d.Netgraph.Metrics.deg_avg d.Netgraph.Metrics.deg_max)
      (Core.Backbone.structures bb);
    Printf.printf "planar backbone: %b\n"
      (Netgraph.Planarity.is_planar snap.Core.Shard.pldel pts);
    0
  in
  let doc = "construct all backbone structures and print statistics" in
  Cmd.v
    (Cmd.info "build" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ jobs $ partition
      $ stats $ trace_file)

(* ---------------- measure ---------------- *)

let measure_cmd =
  let run seed n side radius input jobs partition stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let bb =
      Core.Backbone.run
        { Config.default with Config.radius; jobs; partition }
        pts
    in
    let rows = Core.Quality.rows bb in
    Format.printf "%a@." Core.Quality.pp_agg_header ();
    List.iter (fun r -> Format.printf "%a@." Core.Quality.pp_row r) rows;
    0
  in
  let doc = "measure Table-I quality metrics on one instance" in
  Cmd.v
    (Cmd.info "measure" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ jobs $ partition
      $ stats $ trace_file)

(* ---------------- route ---------------- *)

let route_cmd =
  let src =
    Arg.(required & opt (some int) None & info [ "src" ] ~docv:"NODE" ~doc:"Source node id.")
  in
  let dst =
    Arg.(required & opt (some int) None & info [ "dst" ] ~docv:"NODE" ~doc:"Destination node id.")
  in
  let scheme =
    let doc = "Routing scheme: greedy, gfg, or hierarchical." in
    Arg.(
      value
      & opt (enum [ ("greedy", `Greedy); ("gfg", `Gfg); ("hierarchical", `Hier) ]) `Hier
      & info [ "scheme" ] ~docv:"SCHEME" ~doc)
  in
  let run seed n side radius input src dst scheme stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let bb = Core.Backbone.run { Config.default with Config.radius } pts in
    let result =
      match scheme with
      | `Greedy ->
        Core.Routing.greedy bb.Core.Backbone.snap.Core.Shard.udg pts ~src ~dst
      | `Gfg ->
        Core.Routing.gfg (Core.Backbone.ldel_full bb) pts ~src ~dst
      | `Hier -> Core.Routing.hierarchical bb.Core.Backbone.snap ~src ~dst
    in
    match result with
    | Some path ->
      Printf.printf "path (%d hops, length %.2f): %s\n"
        (Netgraph.Traversal.path_hops path)
        (Netgraph.Traversal.path_length pts path)
        (String.concat " -> " (List.map string_of_int path));
      let udg = bb.Core.Backbone.snap.Core.Shard.udg in
      (match Netgraph.Metrics.pair_stretch ~base:udg ~sub:udg pts src dst with
      | Some _ ->
        let sp = Netgraph.Csr.dijkstra (Netgraph.Csr.with_weights udg pts) src in
        if sp.(dst) > 0. then
          Printf.printf "stretch vs UDG shortest path: %.3f\n"
            (Netgraph.Traversal.path_length pts path /. sp.(dst))
      | None -> ());
      0
    | None ->
      Printf.eprintf "no route found (%d -> %d)\n" src dst;
      1
  in
  let doc = "route a packet between two nodes" in
  Cmd.v
    (Cmd.info "route" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ src $ dst $ scheme
      $ stats $ trace_file)

(* ---------------- protocol ---------------- *)

let protocol_cmd =
  let run seed n side radius input stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let r = Core.Protocol.run pts ~radius in
    let phase name stats =
      Printf.printf "%-12s rounds=%-4d total=%-6d max/node=%-4d avg/node=%.2f\n"
        name stats.Distsim.Engine.rounds
        (Distsim.Engine.total_sent stats)
        (Distsim.Engine.max_sent stats)
        (Distsim.Engine.avg_sent stats)
    in
    phase "clustering" r.Core.Protocol.stats_cluster;
    phase "connectors" r.Core.Protocol.stats_connector;
    phase "status" r.Core.Protocol.stats_status;
    phase "ldel" r.Core.Protocol.stats_ldel;
    phase "TOTAL" (Core.Protocol.ldel_stats r);
    Printf.printf "message kinds:\n";
    List.iter
      (fun (k, c) -> Printf.printf "  %-20s %d\n" k c)
      (Core.Protocol.ldel_stats r).Distsim.Engine.by_kind;
    Printf.printf "distributed PLDel(ICDS): %d edges, planar=%b\n"
      (Netgraph.Csr.edge_count r.Core.Protocol.ldel_graph)
      (Netgraph.Planarity.is_planar r.Core.Protocol.ldel_graph pts);
    0
  in
  let doc = "run the distributed construction and report message costs" in
  Cmd.v
    (Cmd.info "protocol" ~doc)
    Term.(const run $ seed $ nodes $ side $ radius $ input $ stats $ trace_file)

(* ---------------- dump ---------------- *)

let dump_cmd =
  let structure =
    (* valid names come from the registry — the single source of the
       Table I structure list *)
    let doc =
      Printf.sprintf "Structure to dump: %s."
        (String.concat ", "
           (List.map String.lowercase_ascii Core.Backbone.names))
    in
    Arg.(value & opt string "ldel(icds)" & info [ "structure" ] ~docv:"NAME" ~doc)
  in
  let run seed n side radius input structure stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let bb = Core.Backbone.run { Config.default with Config.radius } pts in
    let canonical s =
      String.lowercase_ascii
        (String.concat ""
           (String.split_on_char '('
              (String.concat "" (String.split_on_char ')' s))))
    in
    let target = canonical structure in
    let target =
      String.concat "" (String.split_on_char '-' target)
    in
    match
      List.find_opt
        (fun (name, _, _) ->
          String.concat "" (String.split_on_char '-' (canonical name)) = target)
        (Core.Backbone.structures bb)
    with
    | Some (name, g, _) ->
      Printf.printf "# %s: %d nodes, %d edges\n" name
        (Netgraph.Csr.node_count g) (Netgraph.Csr.edge_count g);
      Netgraph.Csr.iter_edges g (fun u v ->
          let (pu : Geometry.Point.t) = pts.(u)
          and (pv : Geometry.Point.t) = pts.(v) in
          Printf.printf "%d,%d,%.4f,%.4f,%.4f,%.4f\n" u v pu.x pu.y pv.x pv.y);
      0
    | None ->
      Printf.eprintf "unknown structure %S\n" structure;
      1
  in
  let doc = "emit a structure's edge list as CSV (u,v,x1,y1,x2,y2)" in
  Cmd.v
    (Cmd.info "dump" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ structure $ stats
      $ trace_file)

(* ---------------- broadcast ---------------- *)

let broadcast_cmd =
  let source =
    Arg.(value & opt int 0 & info [ "source" ] ~docv:"NODE" ~doc:"Originating node.")
  in
  let run seed n side radius input source stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let snap = Core.Shard.pipeline pts ~radius in
    let udg = snap.Core.Shard.udg and backbone = snap.Core.Shard.backbone in
    let report name (o : Core.Broadcast.outcome) =
      Printf.printf "%-12s %6d transmissions  %5.1f%% coverage  %d rounds\n"
        name o.Core.Broadcast.transmissions
        (100. *. Core.Broadcast.coverage o)
        o.Core.Broadcast.rounds
    in
    report "flood" (Core.Broadcast.flood udg ~source);
    report "rng-relay" (Core.Broadcast.rng_relay udg pts ~source);
    report "backbone" (Core.Broadcast.backbone_broadcast udg ~backbone ~source);
    0
  in
  let doc = "broadcast one packet network-wide and compare relay disciplines" in
  Cmd.v
    (Cmd.info "broadcast" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ source $ stats
      $ trace_file)

(* ---------------- lifetime ---------------- *)

let lifetime_cmd =
  let epochs =
    Arg.(value & opt int 100 & info [ "epochs" ] ~docv:"E" ~doc:"Epochs to simulate.")
  in
  let battery =
    Arg.(value & opt float 2e8 & info [ "battery" ] ~docv:"J" ~doc:"Initial battery per node.")
  in
  let beta =
    Arg.(value & opt float 3. & info [ "beta" ] ~docv:"B" ~doc:"Path-loss exponent.")
  in
  let run seed n side radius input epochs battery beta stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let sink = 0 in
    Printf.printf "%-18s %12s %7s %9s\n" "policy" "first death" "deaths"
      "delivery";
    List.iter
      (fun (name, policy) ->
        let r =
          Core.Energy.run pts ~radius ~sink ~policy ~epochs ~battery ~beta
        in
        Printf.printf "%-18s %12s %7d %9.3f\n" name
          (match r.Core.Energy.first_death with
          | Some e -> string_of_int e
          | None -> "-")
          (List.length r.Core.Energy.deaths)
          (Core.Energy.delivery_ratio r))
      [
        ("static", Core.Energy.Static);
        ("rotate every 5", Core.Energy.Energy_aware 5);
      ];
    0
  in
  let doc = "simulate network lifetime under the d^beta power model" in
  Cmd.v
    (Cmd.info "lifetime" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ epochs $ battery
      $ beta $ stats $ trace_file)

(* ---------------- experiment ---------------- *)

let experiment_cmd =
  let which =
    let doc = "Artifact: table1, fig8, fig9, fig10, fig11 or fig12." in
    Arg.(value & pos 0 string "table1" & info [] ~docv:"ARTIFACT" ~doc)
  in
  let instances =
    Arg.(value & opt int 3 & info [ "instances" ] ~docv:"K" ~doc:"Vertex sets per point.")
  in
  let run which instances jobs stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let cfg = { Core.Experiments.default with instances; jobs } in
    match which with
    | "table1" ->
      let aggs = Core.Experiments.table1 ~cfg ~n:100 ~radius:60. () in
      Format.printf "%a@." Core.Quality.pp_agg_header ();
      List.iter (fun a -> Format.printf "%a@." Core.Quality.pp_agg a) aggs;
      0
    | "fig8" ->
      Format.printf "%a@." Core.Experiments.pp_series
        (Core.Experiments.degree_vs_n ~cfg ~radius:60. ());
      0
    | "fig9" ->
      Format.printf "%a@." Core.Experiments.pp_series
        (Core.Experiments.stretch_vs_n ~cfg ~radius:60. ());
      0
    | "fig10" ->
      Format.printf "%a@." Core.Experiments.pp_series
        (Core.Experiments.comm_vs_n ~cfg ~radius:60. ());
      0
    | "fig11" ->
      Format.printf "%a@." Core.Experiments.pp_series
        (Core.Experiments.stretch_vs_radius ~cfg ~n:500 ());
      0
    | "fig12" ->
      Format.printf "%a@." Core.Experiments.pp_series
        (Core.Experiments.comm_and_degree_vs_radius ~cfg ~n:500 ());
      0
    | other ->
      Printf.eprintf "unknown artifact %S\n" other;
      1
  in
  let doc = "regenerate one of the paper's tables or figures" in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(const run $ which $ instances $ jobs $ stats $ trace_file)

(* ---------------- trace ---------------- *)

let trace_cmd =
  let sizes_arg =
    let doc =
      "Comma-separated instance sizes for the message-complexity fit (at \
       least 3 distinct values).  Default: n/4, n/2, n."
    in
    Arg.(
      value & opt (some string) None & info [ "sizes" ] ~docv:"N1,N2,.." ~doc)
  in
  let out =
    let doc =
      "Write the largest run's Chrome trace-event JSON to $(docv) \
       (chrome://tracing / Perfetto)."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  let folded =
    let doc =
      "Write the largest run's folded span stacks to $(docv) \
       (flamegraph.pl input)."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)
  in
  let critical_path_arg =
    let doc =
      "Reconstruct the happens-before DAG from the trace: print a \
       per-phase causal audit (critical-path depth in message hops, \
       rounds spanned, width, per-node attribution), report causality \
       violations, and gate clustering's causal depth across the size \
       sweep (must stay bounded, or the command exits non-zero).  With \
       $(b,--out), the critical path is exported as Chrome flow arrows."
    in
    Arg.(value & flag & info [ "critical-path" ] ~doc)
  in
  let dot_arg =
    let doc =
      "Write the smallest run's happens-before DAG to $(docv) in DOT \
       (one node per protocol event — keep n small)."
    in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  let deep_fixture_arg =
    let doc =
      "Replace the paper's protocol with a token-relay chain whose \
       causal depth grows linearly in n.  Negative smoke for the \
       causal-depth gate: message totals stay O(n) (the slope gate \
       passes) but the depth gate must fail."
    in
    Arg.(value & flag & info [ "deep-fixture" ] ~doc)
  in
  let run seed n side radius sizes out folded critical_path dot deep_fixture =
    let sizes =
      match sizes with
      | Some s ->
        List.sort_uniq compare
          (List.map
             (fun x -> int_of_string (String.trim x))
             (String.split_on_char ',' s))
      | None -> List.sort_uniq compare [ max 20 (n / 4); max 20 (n / 2); n ]
    in
    if List.length sizes < 3 then begin
      Printf.eprintf "trace: need at least 3 distinct sizes for the slope fit\n";
      2
    end
    else begin
      let was = Obs.enabled () in
      Obs.set_enabled true;
      (* One protocol run per size, each with a fresh trace.  Events are
         harvested before the next [start] resets the ring buffers.
         Each run yields its per-phase engine stats so the audit below
         works for both the real protocol and the deep fixture. *)
      let deep_run size =
        (* Token relay over a path graph: node 0 fires, each node
           forwards on hearing its predecessor.  O(n) messages but a
           causal chain of depth n-1 — the depth gate's negative
           fixture. *)
        let g =
          Netgraph.Csr.of_edges size (List.init (size - 1) (fun i -> (i, i + 1)))
        in
        let protocol =
          {
            Distsim.Engine.init = (fun i _ -> i = 0);
            on_round =
              (fun ctx fired inbox ->
                if ctx.Distsim.Engine.round = 0 && ctx.Distsim.Engine.me = 0
                then begin
                  ctx.Distsim.Engine.broadcast 0;
                  true
                end
                else if
                  (not fired)
                  && List.exists
                       (fun (d : int Distsim.Engine.delivery) ->
                         d.Distsim.Engine.msg = ctx.Distsim.Engine.me - 1)
                       inbox
                then begin
                  ctx.Distsim.Engine.broadcast ctx.Distsim.Engine.me;
                  true
                end
                else fired);
          }
        in
        let _, st =
          Obs.span "protocol" (fun () ->
              Obs.span "cluster" (fun () ->
                  Distsim.Engine.run ~classify:(fun _ -> "Token") g protocol))
        in
        [ ("cluster", st) ]
      in
      let runs =
        List.map
          (fun size ->
            Obs.reset ();
            Obs.Trace.start ~capacity:(1 lsl 21) ();
            let phase_stats =
              if deep_fixture then deep_run size
              else begin
                let rng =
                  Wireless.Rand.create (Int64.add seed (Int64.of_int size))
                in
                let pts, _ =
                  Wireless.Deploy.connected_uniform rng ~n:size ~side ~radius
                    ~max_attempts:5000
                in
                let r = Core.Protocol.run pts ~radius in
                List.combine Core.Protocol.phases
                  [
                    r.Core.Protocol.stats_cluster;
                    r.Core.Protocol.stats_connector;
                    r.Core.Protocol.stats_status;
                    r.Core.Protocol.stats_ldel;
                  ]
              end
            in
            Obs.Trace.stop ();
            (size, phase_stats, Obs.Trace.events (), Obs.Trace.dropped ()))
          sizes
      in
      Obs.set_enabled was;
      let size_l, stats_l, evs_l, dropped_l =
        List.nth runs (List.length runs - 1)
      in
      if dropped_l > 0 then
        Printf.eprintf
          "trace: warning: ring buffer overflowed, %d oldest events dropped \
           (n=%d) — message totals below are partial\n"
          dropped_l size_l;
      (* per-phase, per-kind message audit for the largest instance *)
      let audit = Obs.Trace.message_audit evs_l in
      Printf.printf "message audit (n=%d, radius %g, seed %Ld):\n" size_l radius
        seed;
      Printf.printf "  %-20s %-20s %9s %11s %10s\n" "phase" "kind" "sends"
        "deliveries" "sends/node";
      List.iter
        (fun (row : Obs.Trace.audit_row) ->
          Printf.printf "  %-20s %-20s %9d %11d %10.2f\n" row.Obs.Trace.a_phase
            row.Obs.Trace.a_kind row.Obs.Trace.a_sends
            row.Obs.Trace.a_deliveries
            (float_of_int row.Obs.Trace.a_sends /. float_of_int size_l))
        audit;
      (* phase totals, cross-checked against the engine's own counters *)
      let phase_sends phase =
        List.fold_left
          (fun acc (row : Obs.Trace.audit_row) ->
            if row.Obs.Trace.a_phase = phase then acc + row.Obs.Trace.a_sends
            else acc)
          0 audit
      in
      let audit_ok = ref true in
      Printf.printf "phase totals (trace vs engine):\n";
      List.iter
        (fun (name, st) ->
          let phase = "protocol/" ^ name in
          let traced = phase_sends phase in
          let engine = Distsim.Engine.total_sent st in
          let ok = traced = engine || dropped_l > 0 in
          if not ok then audit_ok := false;
          Printf.printf "  %-20s %9d traced  %9d engine  %8.2f/node%s\n" phase
            traced engine
            (float_of_int engine /. float_of_int size_l)
            (if traced = engine then "" else "  MISMATCH"))
        stats_l;
      (* O(n) clustering claim: log-log slope of clustering messages vs n *)
      let fit_points =
        List.map
          (fun (size, _, evs, _) ->
            let cl =
              List.fold_left
                (fun acc (row : Obs.Trace.audit_row) ->
                  if row.Obs.Trace.a_phase = "protocol/cluster" then
                    acc + row.Obs.Trace.a_sends
                  else acc)
                0
                (Obs.Trace.message_audit evs)
            in
            (size, cl))
          runs
      in
      Printf.printf "clustering messages vs n:";
      List.iter (fun (size, cl) -> Printf.printf "  %d:%d" size cl) fit_points;
      print_newline ();
      let slope =
        Obs.Trace.fit_loglog_slope
          (List.map
             (fun (size, cl) -> (float_of_int size, float_of_int cl))
             fit_points)
      in
      let slope_ok = slope >= 0.75 && slope <= 1.25 in
      Printf.printf "O(n) clustering check: log-log slope %.3f -> %s\n" slope
        (if slope_ok then "OK (linear)"
         else "FAIL (expected within [0.75, 1.25])");
      (* span profile of the largest run *)
      Printf.printf "span profile (n=%d):\n" size_l;
      Printf.printf "  %-30s %7s %11s %11s\n" "path" "calls" "total(s)"
        "self(s)";
      List.iter
        (fun (row : Obs.Trace.profile_row) ->
          Printf.printf "  %-30s %7d %11.6f %11.6f\n" row.Obs.Trace.p_path
            row.Obs.Trace.p_calls row.Obs.Trace.p_total row.Obs.Trace.p_self)
        (Obs.Trace.profile evs_l);
      (* happens-before analysis: per-phase causal audit, violation
         diagnostics, and the clustering depth gate over the sweep *)
      let causal_ok = ref true in
      let flows_l = ref [] in
      if critical_path then begin
        let reports =
          List.map
            (fun (size, _, evs, dropped) ->
              (size, Obs.Causal.analyze evs, dropped))
            runs
        in
        let _, rep_l, _ = List.nth reports (List.length reports - 1) in
        flows_l := Obs.Causal.flows evs_l rep_l;
        Printf.printf "causal audit (n=%d):\n" size_l;
        Printf.printf "  %-20s %7s %6s %7s %10s %12s\n" "phase" "events"
          "depth" "rounds" "max-width" "top-node";
        List.iter
          (fun (ph : Obs.Causal.phase_report) ->
            let wmax =
              List.fold_left
                (fun acc (_, w) -> max acc w)
                0 ph.Obs.Causal.ph_width
            in
            let top =
              match ph.Obs.Causal.ph_attribution with
              | [] -> "-"
              | (nd, c) :: _ -> Printf.sprintf "n%d (%d)" nd c
            in
            Printf.printf "  %-20s %7d %6d %7d %10d %12s\n"
              ph.Obs.Causal.ph_phase ph.Obs.Causal.ph_events
              ph.Obs.Causal.ph_depth ph.Obs.Causal.ph_rounds wmax top)
          rep_l.Obs.Causal.r_phases;
        Printf.printf
          "  end-to-end critical path: %d message hops, %d rounds, %g \
           simulated time\n"
          rep_l.Obs.Causal.r_depth rep_l.Obs.Causal.r_rounds
          rep_l.Obs.Causal.r_span_time;
        (* causality violations are a hard failure, except on runs whose
           ring overflowed (dropped sends legitimately orphan delivers) *)
        List.iter
          (fun (size, rep, dropped) ->
            if dropped = 0 then
              List.iter
                (fun v ->
                  causal_ok := false;
                  Format.printf "  causality violation (n=%d): %a@." size
                    Obs.Causal.pp_violation v)
                rep.Obs.Causal.r_violations)
          reports;
        (* O(1) rounds claim: clustering's causal depth must stay
           bounded across the sweep — flat range, or a log-log slope
           well below linear *)
        let cluster_depths =
          List.map
            (fun (size, rep, _) ->
              let d =
                List.fold_left
                  (fun acc (ph : Obs.Causal.phase_report) ->
                    if ph.Obs.Causal.ph_phase = "protocol/cluster" then
                      ph.Obs.Causal.ph_depth
                    else acc)
                  0 rep.Obs.Causal.r_phases
              in
              (size, d))
            reports
        in
        Printf.printf "clustering causal depth vs n:";
        List.iter (fun (s, d) -> Printf.printf "  %d:%d" s d) cluster_depths;
        print_newline ();
        let depths = List.map snd cluster_depths in
        let dmin = List.fold_left min max_int depths in
        let dmax = List.fold_left max 0 depths in
        let dslope =
          Obs.Trace.fit_loglog_slope
            (List.map
               (fun (s, d) -> (float_of_int s, float_of_int (max 1 d)))
               cluster_depths)
        in
        let depth_ok = dmax - dmin <= 2 || dslope <= 0.45 in
        if not depth_ok then causal_ok := false;
        Printf.printf
          "O(1) clustering depth check: range [%d, %d], log-log slope %.3f \
           -> %s\n"
          dmin dmax dslope
          (if depth_ok then "OK (bounded)"
           else "FAIL (depth grows with n)")
      end;
      let dot_code =
        match dot with
        | None -> 0
        | Some file ->
          let size_s, _, evs_s, _ = List.hd runs in
          let buf = Buffer.create 65536 in
          let fmt = Format.formatter_of_buffer buf in
          Obs.Causal.write_dot fmt evs_s;
          Format.pp_print_flush fmt ();
          let text = Buffer.contents buf in
          let count c =
            String.fold_left (fun acc ch -> if ch = c then acc + 1 else acc)
              0 text
          in
          if
            String.length text > 7
            && String.sub text 0 7 = "digraph"
            && count '{' > 0
            && count '{' = count '}'
          then begin
            let oc = open_out file in
            output_string oc text;
            close_out oc;
            Printf.eprintf "trace: wrote happens-before DAG (n=%d) to %s\n"
              size_s file;
            0
          end
          else begin
            Printf.eprintf "trace: %s: DOT output failed structural check\n"
              file;
            1
          end
      in
      let out_code =
        match out with
        | None -> 0
        | Some file -> export_trace ~flows:!flows_l file evs_l
      in
      (match folded with
      | None -> ()
      | Some file ->
        let oc = open_out file in
        let fmt = Format.formatter_of_out_channel oc in
        Obs.Trace.write_folded fmt evs_l;
        Format.pp_print_flush fmt ();
        close_out oc;
        Printf.eprintf "trace: wrote folded stacks to %s\n" file);
      if (not slope_ok) || (not !audit_ok) || not !causal_ok then 1
      else if out_code <> 0 then out_code
      else dot_code
    end
  in
  let doc =
    "replay the distributed construction under the event tracer: audit \
     per-phase per-kind message complexity against the engine's counters, \
     fit the messages-vs-n slope to check the paper's O(n) clustering \
     claim, reconstruct the happens-before DAG for critical-path and \
     causal-depth gates, and export Chrome/folded/DOT artifacts"
  in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ sizes_arg $ out $ folded
      $ critical_path_arg $ dot_arg $ deep_fixture_arg)

(* ---------------- monitor ---------------- *)

let monitor_cmd =
  let rounds_arg =
    Arg.(
      value & opt int 50
      & info [ "rounds" ] ~docv:"K" ~doc:"Mobility rounds to simulate.")
  in
  let min_speed =
    Arg.(
      value & opt float 1.
      & info [ "min-speed" ] ~docv:"V" ~doc:"Minimum waypoint speed per round.")
  in
  let max_speed =
    Arg.(
      value & opt float 3.
      & info [ "max-speed" ] ~docv:"V" ~doc:"Maximum waypoint speed per round.")
  in
  let policy =
    let doc =
      "Maintenance policy after each round: $(b,refresh) (incumbent \
       dominators keep priority) or $(b,rebuild) (from scratch)."
    in
    Arg.(
      value
      & opt (enum [ ("refresh", `Refresh); ("rebuild", `Rebuild) ]) `Refresh
      & info [ "policy" ] ~docv:"POLICY" ~doc)
  in
  let refresh_when =
    let doc =
      "When to run maintenance: $(b,every) round, or only when a backbone \
       link $(b,broke).  With $(b,broke), rounds between repairs check the \
       stale backbone against the moved nodes — expect planarity and \
       stretch alerts; that is the point."
    in
    Arg.(
      value
      & opt (enum [ ("every", `Every); ("broke", `Broke) ]) `Every
      & info [ "refresh-when" ] ~docv:"WHEN" ~doc)
  in
  let stretch_sources =
    Arg.(
      value & opt int 8
      & info [ "stretch-sources" ] ~docv:"K"
          ~doc:"Sampled sources per round for the stretch probes.")
  in
  let traffic =
    Arg.(
      value & opt int 4
      & info [ "traffic" ] ~docv:"K"
          ~doc:
            "Greedy-route $(docv) random packets per round through the \
             packet simulator, so the per-round message and delivery-ratio \
             probes observe live engine traffic.  0 disables.")
  in
  let limit name probe =
    Arg.(
      value & opt (some float) None
      & info [ name ] ~docv:"X"
          ~doc:(Printf.sprintf "Override the $(b,%s) alert limit." probe))
  in
  let len_limit = limit "len-limit" "len_stretch_max" in
  let hop_limit = limit "hop-limit" "hop_stretch_max" in
  let degree_limit = limit "degree-limit" "deg_max" in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Export the telemetry time-series as JSON-lines to $(docv) (one \
             object per probe per round); the file is re-parsed and the \
             command fails on a round-trip mismatch.")
  in
  let csv_out =
    Arg.(
      value & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Export the telemetry time-series as a CSV matrix to $(docv).")
  in
  (* write + re-parse, like export_trace: the exporter validates its
     own output *)
  let export_jsonl file tel =
    let oc = open_out file in
    let fmt = Format.formatter_of_out_channel oc in
    Obs.Telemetry.write_jsonl fmt tel;
    Format.pp_print_flush fmt ();
    close_out oc;
    let ic = open_in_bin file in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let written = List.length (Obs.Telemetry.rounds tel) in
    match Obs.Telemetry.read_jsonl contents with
    | rows when List.length rows = written ->
      Printf.eprintf "monitor: wrote %d rounds to %s\n" written file;
      0
    | rows ->
      Printf.eprintf
        "monitor: %s round-trip mismatch (%d rounds written, %d parsed)\n"
        file written (List.length rows);
      1
    | exception Failure msg ->
      Printf.eprintf "monitor: %s failed to validate: %s\n" file msg;
      1
  in
  let run seed n side radius input rounds min_speed max_speed policy
      refresh_when stretch_sources traffic len_limit hop_limit degree_limit
      out csv_out listen jobs stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    let mon_ref = ref None in
    (* /healthz reflects the monitor's live probe status *)
    let health () =
      match !mon_ref with
      | None -> (true, "starting")
      | Some mon ->
        if Core.Monitor.healthy mon then (true, "ok")
        else
          ( false,
            Printf.sprintf "%d violations"
              (List.length (Core.Monitor.violations mon)) )
    in
    with_listen ~health listen @@ fun _lport ->
    let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
    let was = Obs.enabled () in
    Obs.set_enabled true;
    Obs.set_gc_sampling true;
    let bb =
      ref (Core.Backbone.run { Config.default with Config.radius; jobs } pts)
    in
    let model =
      Wireless.Mobility.random_waypoint
        (Wireless.Rand.create (Int64.add seed 1L))
        ~side ~min_speed ~max_speed ~init:pts
    in
    let th = Core.Monitor.default_thresholds in
    let th =
      {
        th with
        Core.Monitor.max_len_stretch =
          Option.value len_limit ~default:th.Core.Monitor.max_len_stretch;
        max_hop_stretch =
          Option.value hop_limit ~default:th.Core.Monitor.max_hop_stretch;
        max_degree =
          Option.value degree_limit ~default:th.Core.Monitor.max_degree;
      }
    in
    let mon =
      Core.Monitor.create ~thresholds:th ~stretch_sources ~seed ~jobs ()
    in
    mon_ref := Some mon;
    let ring_dumped = ref false in
    let traffic_rng = Wireless.Rand.create (Int64.add seed 2L) in
    let tel = Core.Monitor.telemetry mon in
    let lastv name =
      match Obs.Telemetry.last tel name with Some v -> v | None -> nan
    in
    Printf.printf
      "monitor: n=%d radius=%g rounds=%d policy=%s seed=%Ld\n" n radius rounds
      (match policy with `Refresh -> "refresh" | `Rebuild -> "rebuild")
      seed;
    Printf.printf "%5s %6s %6s %5s %5s %5s %4s %6s %6s %8s  %s\n" "round"
      "broken" "roleΔ" "cross" "xcomp" "gaps" "deg" "len" "hop" "msgs"
      "status";
    for r = 1 to rounds do
      Wireless.Mobility.step model;
      let positions = Array.copy (Wireless.Mobility.positions model) in
      let broken = Core.Maintenance.needs_refresh !bb positions in
      let maintained =
        if refresh_when = `Every || broken > 0 then begin
          let next, st =
            match policy with
            | `Refresh -> Core.Maintenance.refresh !bb positions
            | `Rebuild -> Core.Maintenance.rebuild !bb positions
          in
          bb := next;
          Some st
        end
        else None
      in
      let traffic_extra =
        if traffic <= 0 then []
        else
          match
            Core.Packetsim.many !bb.Core.Backbone.udg
              !bb.Core.Backbone.snap.Core.Shard.points
              ~pairs:traffic traffic_rng ~router:`Greedy
          with
          | _, 0, _ -> [] (* fewer than two nodes: nothing was sent *)
          | delivered, pairs, _ ->
            [ ("delivery_ratio", float_of_int delivered /. float_of_int pairs) ]
      in
      let extra =
        ("links_broken", float_of_int broken)
        ::
        (match maintained with
        | Some st ->
          [
            ("role_changes", float_of_int st.Core.Maintenance.role_changes);
            ("edge_changes", float_of_int st.Core.Maintenance.edge_changes);
          ]
        | None -> [])
        @ traffic_extra
      in
      let vs = Core.Monitor.observe mon ~round:r ~extra !bb in
      (* the flight recorder is always on: dump it once, at the first
         violating round, so the events leading up to the violation
         are on record even without --listen *)
      if vs <> [] && not !ring_dumped then begin
        ring_dumped := true;
        Printf.eprintf "monitor: flight recorder at first violation:\n";
        Obs.Recorder.dump Format.err_formatter ();
        Format.pp_print_flush Format.err_formatter ()
      end;
      let status =
        match vs with
        | [] -> "ok"
        | vs ->
          "VIOLATION("
          ^ String.concat ","
              (List.map (fun v -> v.Core.Monitor.v_probe) vs)
          ^ ")"
      in
      Printf.printf "%5d %6d %6.0f %5.0f %5.0f %5.0f %4.0f %6.2f %6.2f %8.0f  %s\n"
        r broken (lastv "role_changes") (lastv "crossings")
        (lastv "extra_components") (lastv "domination_gaps") (lastv "deg_max")
        (lastv "len_stretch_max") (lastv "hop_stretch_max") (lastv "messages")
        status
    done;
    Obs.set_gc_sampling false;
    Printf.printf "probe summary (%d rounds):\n" rounds;
    List.iter
      (fun name ->
        let series = List.map snd (Obs.Telemetry.series tel name) in
        let q = Obs.quantiles (Array.of_list series) [| 0.5; 0.9; 1. |] in
        Printf.printf "  %-18s last=%10.2f p50=%10.2f p90=%10.2f max=%10.2f  %s\n"
          name (lastv name) q.(0) q.(1) q.(2)
          (Obs.Telemetry.sparkline series))
      (Obs.Telemetry.names tel);
    List.iter
      (fun (v : Core.Monitor.violation) ->
        Printf.printf "VIOLATION round %d: %s = %g exceeds limit %g%s\n"
          v.Core.Monitor.v_round v.Core.Monitor.v_probe v.Core.Monitor.v_value
          v.Core.Monitor.v_limit
          (if v.Core.Monitor.v_node >= 0 then
             Printf.sprintf " (node %d)" v.Core.Monitor.v_node
           else ""))
      (Core.Monitor.violations mon);
    let out_code =
      match out with None -> 0 | Some file -> export_jsonl file tel
    in
    (match csv_out with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      let fmt = Format.formatter_of_out_channel oc in
      Obs.Telemetry.write_csv fmt tel;
      Format.pp_print_flush fmt ();
      close_out oc;
      Printf.eprintf "monitor: wrote CSV matrix to %s\n" file);
    Obs.set_enabled was;
    if not (Core.Monitor.healthy mon) then 1 else out_code
  in
  let doc =
    "run a random-waypoint mobility scenario under the invariant health \
     monitor: maintain the backbone each round, re-check the paper's \
     guarantees (planarity, connectivity, domination, the ICDS degree \
     bound, sampled length/hop stretch), print a per-round health table \
     with sparkline summaries, and exit non-zero on any violation"
  in
  Cmd.v
    (Cmd.info "monitor" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ rounds_arg
      $ min_speed $ max_speed $ policy $ refresh_when $ stretch_sources
      $ traffic $ len_limit $ hop_limit $ degree_limit $ out $ csv_out
      $ listen_arg $ jobs $ stats $ trace_file)

(* ---------------- serve ---------------- *)

let serve_cmd =
  let queries =
    Arg.(
      value & opt int 20_000
      & info [ "queries" ] ~docv:"Q" ~doc:"Queries to serve.")
  in
  let mix_arg =
    let doc =
      "Query mix as comma-separated scheme weights, e.g. \
       $(b,greedy=0.5,gfg=0.3,compass=0.15,stretch=0.05).  Omitted schemes \
       weigh 0; $(b,stretch) probes route with GFG and report walked length \
       over the UDG shortest path."
    in
    Arg.(
      value
      & opt string (Serve.Workload.mix_to_string Serve.Workload.default_mix)
      & info [ "mix" ] ~docv:"MIX" ~doc)
  in
  let skew_arg =
    let doc =
      "Source/destination distribution: $(b,uniform), $(b,zipf:S) (exponent \
       S, low ids hot), or $(b,hotspot:FRAC/K) (fraction FRAC of endpoint \
       draws land on K random hot nodes)."
    in
    Arg.(value & opt string "uniform" & info [ "skew" ] ~docv:"SKEW" ~doc)
  in
  let rate =
    let doc =
      "Open-loop arrival rate in queries per second: query $(i,i) arrives at \
       $(i,i)/$(docv) and its latency includes queueing delay.  Default: \
       closed loop (latency is pure service time)."
    in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"QPS" ~doc)
  in
  let batch_arg =
    let doc =
      "Queries per epoch-pinned batch; the epoch can only roll at batch \
       boundaries, so per-query results stay independent of --jobs."
    in
    Arg.(value & opt int 4096 & info [ "batch" ] ~docv:"B" ~doc)
  in
  let churn =
    let doc =
      "Every $(docv) batches, jitter the node positions and publish a \
       rebuilt snapshot as a new epoch — queries in flight keep their \
       pinned epoch.  0 disables churn."
    in
    Arg.(value & opt int 0 & info [ "churn" ] ~docv:"K" ~doc)
  in
  let churn_jitter =
    Arg.(
      value & opt float 2.
      & info [ "churn-jitter" ] ~docv:"D"
          ~doc:"Per-axis uniform move amplitude for --churn.")
  in
  let no_latency =
    let doc =
      "Skip the two per-query clock reads: pure throughput/allocation mode \
       (the latency table is omitted)."
    in
    Arg.(value & flag & info [ "no-latency" ] ~doc)
  in
  let out =
    let doc =
      "Write the per-query result log as JSON-lines to $(docv) (op, \
       endpoints, epoch, hops, stretch — deterministic fields only); the \
       file is re-parsed and checked against the in-memory results before \
       exit."
    in
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc)
  in
  (* write + re-parse + compare, in the export_trace/export_jsonl
     tradition: the exporter validates its own output *)
  let export_serve file (w : Serve.Workload.t) (r : Serve.Engine.results) =
    let oc = open_out file in
    let fmt = Format.formatter_of_out_channel oc in
    Serve.Engine.write_jsonl fmt w r;
    Format.pp_print_flush fmt ();
    close_out oc;
    let ic = open_in_bin file in
    let contents = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match Serve.Engine.read_jsonl contents with
    | rows ->
      let ok =
        List.length rows = r.Serve.Engine.count
        && List.for_all
             (fun (row : Serve.Engine.row) ->
               row.Serve.Engine.r_q >= 0
               && row.r_q < r.count
               && row.r_hops = r.hops.(row.r_q)
               && row.r_epoch = r.epoch.(row.r_q)
               && row.r_src = w.Serve.Workload.src.(row.r_q)
               && row.r_dst = w.Serve.Workload.dst.(row.r_q))
             rows
      in
      if ok then begin
        Printf.eprintf "serve: wrote %d query results to %s\n" r.count file;
        0
      end
      else begin
        Printf.eprintf
          "serve: %s round-trip mismatch against the in-memory results\n" file;
        1
      end
    | exception Failure msg ->
      Printf.eprintf "serve: %s failed to validate: %s\n" file msg;
      1
  in
  let run seed n side radius input jobs partition queries mix skew rate batch
      churn churn_jitter no_latency out listen stats_fmt trace =
    with_stats stats_fmt @@ fun () ->
    with_trace trace @@ fun () ->
    match (Serve.Workload.mix_of_string mix, Serve.Workload.skew_of_string skew)
    with
    | Error e, _ | _, Error e ->
      Printf.eprintf "serve: %s\n" e;
      2
    | Ok mix, Ok skew ->
      let store_ref = ref None in
      (* /epoch reports the store's currently published epoch id *)
      let epoch_route () =
        match !store_ref with
        | None -> "-1\n"
        | Some store ->
          Printf.sprintf "%d\n" (Serve.Store.id (Serve.Store.pin store))
      in
      with_listen ~routes:[ ("/epoch", epoch_route) ] listen @@ fun lport ->
      let pts = deployment ~seed ~n ~side ~radius ~connected:true ~input in
      let n = Array.length pts in
      let cfg = { Config.default with Config.radius; jobs; partition } in
      let store = Serve.Store.create (Core.Backbone.snapshot cfg pts) in
      store_ref := Some store;
      let w =
        Serve.Workload.generate ~seed ~n ~count:queries ~mix ~skew ?rate ()
      in
      let churn_rng = Wireless.Rand.create (Int64.add seed 11L) in
      let positions = ref pts in
      let nb = if queries = 0 then 0 else (queries + batch - 1) / batch in
      let midrun_scraped = ref false in
      let midrun_err = ref None in
      let on_batch b =
        (* scrape ourselves once, mid-run, from the batch boundary:
           proves a live scraper sees parseable exposition while
           queries are in flight (the fan-out has not started yet, so
           this perturbs scheduling, never results) *)
        (match lport with
        | Some port when (not !midrun_scraped) && b = nb / 2 ->
          midrun_scraped := true;
          (match Obs.Export.get ~port "/metrics" with
          | exception e -> midrun_err := Some (Printexc.to_string e)
          | _, body -> (
            match Obs.Export.parse_exposition body with
            | exception Failure msg -> midrun_err := Some msg
            | samples ->
              Printf.eprintf
                "listen: mid-run scrape at batch %d parsed %d samples\n%!" b
                (List.length samples)))
        | _ -> ());
        if churn > 0 && b > 0 && b mod churn = 0 then begin
          let moved =
            Array.map
              (fun (p : Geometry.Point.t) ->
                let jit () =
                  Wireless.Rand.float churn_rng (2. *. churn_jitter)
                  -. churn_jitter
                in
                Geometry.Point.make
                  (Float.max 0. (Float.min side (p.x +. jit ())))
                  (Float.max 0. (Float.min side (p.y +. jit ()))))
              !positions
          in
          positions := moved;
          ignore (Serve.Store.publish store (Core.Backbone.snapshot cfg moved))
        end
      in
      let r =
        Serve.Engine.run ~jobs ~batch ~latency:(not no_latency) ~on_batch
          ~store w
      in
      let s = Serve.Engine.summarize r in
      let epochs = Serve.Store.id (Serve.Store.pin store) + 1 in
      Printf.printf "serve: n=%d queries=%d jobs=%d batch=%d epochs=%d%s\n" n
        queries jobs batch epochs
        (match rate with
        | Some q -> Printf.sprintf " rate=%g/s (open loop)"
                      q
        | None -> "");
      Printf.printf "throughput: %10.0f queries/s   (%.3f s elapsed)\n"
        s.Serve.Engine.s_qps r.Serve.Engine.elapsed_s;
      Printf.printf "delivered:  %7d/%d (%.2f%%)\n" s.Serve.Engine.s_delivered
        queries
        (if queries = 0 then 100.
         else
           100.
           *. float_of_int s.Serve.Engine.s_delivered
           /. float_of_int queries);
      Printf.printf "hops:       p50 %.0f  p99 %.0f\n" s.Serve.Engine.s_hop_p50
        s.Serve.Engine.s_hop_p99;
      if not (Float.is_nan s.Serve.Engine.s_stretch_p50) then
        Printf.printf "stretch:    p50 %.3f  max %.3f  (sampled probes)\n"
          s.Serve.Engine.s_stretch_p50 s.Serve.Engine.s_stretch_max;
      if not no_latency then
        Printf.printf
          "latency:    p50 %.1f us  p99 %.1f us  p999 %.1f us\n"
          s.Serve.Engine.s_lat_p50_us s.Serve.Engine.s_lat_p99_us
          s.Serve.Engine.s_lat_p999_us;
      Printf.printf "alloc:      %.2f minor words/query (caller domain)\n"
        s.Serve.Engine.s_minor_per_query;
      Printf.printf "drops:      %s\n" (Serve.Engine.drops_line s);
      let tel = Obs.Telemetry.create () in
      Serve.Engine.to_telemetry tel r;
      List.iter
        (fun name ->
          let series = List.map snd (Obs.Telemetry.series tel name) in
          Printf.printf "  %-16s %s\n" name (Obs.Telemetry.sparkline series))
        (Obs.Telemetry.names tel);
      let code =
        match out with None -> 0 | Some file -> export_serve file w r
      in
      (match !midrun_err with
      | None -> code
      | Some msg ->
        Printf.eprintf "serve: mid-run scrape failed: %s\n" msg;
        1)
  in
  let doc =
    "serve route queries (greedy / GFG / compass / sampled stretch) from \
     epoch-pinned backbone snapshots across worker domains, and report \
     throughput, tail latency and per-batch sparklines"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ seed $ nodes $ side $ radius $ input $ jobs $ partition
      $ queries $ mix_arg $ skew_arg $ rate $ batch_arg $ churn $ churn_jitter
      $ no_latency $ out $ listen_arg $ stats $ trace_file)

(* ---------------- main ---------------- *)

let () =
  let doc = "geometric spanners for wireless ad hoc networks" in
  let info = Cmd.info "spanner" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            generate_cmd; build_cmd; measure_cmd; route_cmd; protocol_cmd;
            dump_cmd; broadcast_cmd; lifetime_cmd; experiment_cmd; trace_cmd;
            monitor_cmd; serve_cmd;
          ]))

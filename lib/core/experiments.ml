module M = Netgraph.Metrics
module E = Distsim.Engine

type config = {
  side : float;
  seed : int64;
  instances : int;
  max_attempts : int;
  jobs : int;
}

let default =
  {
    side = 200.;
    seed = 2002L;
    instances = 10;
    max_attempts = 2000;
    jobs = Netgraph.Pool.default_jobs ();
  }

let quick = { default with instances = 3 }

(* every sweep builds its instances through here so cfg.jobs reaches
   the metrics engine via the Backbone record *)
let backbone_of cfg pts ~radius =
  Backbone.run
    { Backbone.Config.default with Backbone.Config.radius; jobs = cfg.jobs }
    pts

type series = { label : string; points : (float * float) list }

let deployments cfg ~n ~radius =
  (* one RNG per sweep point, split deterministically from the master
     seed so parameter points are independent of evaluation order *)
  let rng =
    Wireless.Rand.create
      (Int64.add cfg.seed (Int64.of_int ((n * 7919) + int_of_float radius)))
  in
  List.init cfg.instances (fun _ ->
      fst
        (Wireless.Deploy.connected_uniform rng ~n ~side:cfg.side ~radius
           ~max_attempts:cfg.max_attempts))

let table1 ?(cfg = default) ?(n = 100) ?(radius = 50.) () =
  let rows =
    List.map
      (fun pts -> Quality.rows (backbone_of cfg pts ~radius))
      (deployments cfg ~n ~radius)
  in
  Quality.aggregate rows

(* Aggregation helpers: every instance yields an association list of
   (curve label, value); "avg"-labelled curves are averaged across
   instances, "max"-labelled curves maximized. *)
let aggregate_instances per_instance =
  match per_instance with
  | [] -> []
  | first :: _ ->
    List.mapi
      (fun i (label, _) ->
        let vals = List.map (fun inst -> snd (List.nth inst i)) per_instance in
        let v =
          if
            String.length label >= 3
            && String.sub label (String.length label - 3) 3 = "max"
          then List.fold_left Float.max neg_infinity vals
          else
            List.fold_left ( +. ) 0. vals /. float_of_int (List.length vals)
        in
        (label, v))
      first

let sweep xs ~of_x =
  (* of_x returns the per-instance labelled values for one parameter
     point; the result is transposed into labelled series *)
  let per_x =
    List.map (fun x -> (x, aggregate_instances (of_x x))) xs
  in
  match per_x with
  | [] -> []
  | (_, first) :: _ ->
    List.mapi
      (fun i (label, _) ->
        {
          label;
          points = List.map (fun (x, vals) -> (x, snd (List.nth vals i))) per_x;
        })
      first

(* Figure 8's structures: the backbone family of the registry. *)
let degree_structures (bb : Backbone.t) =
  List.map (fun (name, g, _) -> (name, g)) (Backbone.backbone_structures bb)

let default_ns = [ 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
let default_radii = [ 20.; 25.; 30.; 35.; 40.; 45.; 50.; 55.; 60. ]

let degree_values bb =
  List.concat_map
    (fun (name, g) ->
      let d = M.degree_stats g in
      [
        (name ^ " deg max", float_of_int d.M.deg_max);
        (name ^ " deg avg", d.M.deg_avg);
      ])
    (degree_structures bb)

let degree_vs_n ?(cfg = default) ?(radius = 60.) ?(ns = default_ns) () =
  sweep
    (List.map float_of_int ns)
    ~of_x:(fun x ->
      let n = int_of_float x in
      List.map
        (fun pts -> degree_values (backbone_of cfg pts ~radius))
        (deployments cfg ~n ~radius))

let stretch_values (bb : Backbone.t) =
  let spanning =
    List.filter_map
      (fun (name, v, scope) -> if scope = `Spans_all then Some (name, v) else None)
      (Backbone.backbone_structures bb)
  in
  (* one fused pass shares the UDG shortest-path trees across the
     three spanning curves instead of recomputing them per structure *)
  let combined =
    M.combined_stretch ~jobs:bb.Backbone.jobs
      ~base:bb.Backbone.snap.Shard.udg
      bb.Backbone.snap.Shard.points spanning
  in
  List.concat_map
    (fun (name, (c : M.combined)) ->
      let s = c.M.c_stretch in
      [
        (name ^ " length max", s.M.len_max);
        (name ^ " hop max", s.M.hop_max);
        (name ^ " length avg", s.M.len_avg);
        (name ^ " hop avg", s.M.hop_avg);
      ])
    combined

let stretch_vs_n ?(cfg = default) ?(radius = 60.) ?(ns = default_ns) () =
  sweep
    (List.map float_of_int ns)
    ~of_x:(fun x ->
      let n = int_of_float x in
      List.map
        (fun pts -> stretch_values (backbone_of cfg pts ~radius))
        (deployments cfg ~n ~radius))

let comm_values (r : Protocol.result) =
  let levels =
    [
      ("CDS", Protocol.cds_stats r);
      ("ICDS", Protocol.icds_stats r);
      ("LDelICDS", Protocol.ldel_stats r);
    ]
  in
  List.concat_map
    (fun (name, stats) ->
      [
        (name ^ " comm max", float_of_int (E.max_sent stats));
        (name ^ " comm avg", E.avg_sent stats);
      ])
    levels

let comm_vs_n ?(cfg = default) ?(radius = 60.) ?(ns = default_ns) () =
  sweep
    (List.map float_of_int ns)
    ~of_x:(fun x ->
      let n = int_of_float x in
      List.map
        (fun pts -> comm_values (Protocol.run pts ~radius))
        (deployments cfg ~n ~radius))

let stretch_vs_radius ?(cfg = default) ?(n = 500) ?(radii = default_radii) () =
  sweep radii ~of_x:(fun radius ->
      List.map
        (fun pts -> stretch_values (backbone_of cfg pts ~radius))
        (deployments cfg ~n ~radius))

let comm_and_degree_vs_radius ?(cfg = default) ?(n = 500)
    ?(radii = default_radii) () =
  sweep radii ~of_x:(fun radius ->
      List.map
        (fun pts ->
          let r = Protocol.run pts ~radius in
          let graphs =
            [
              ("CDS", Netgraph.Csr.of_edges n r.Protocol.cds_edges);
              ("ICDS", Netgraph.Csr.of_edges n r.Protocol.icds_edges);
              ("LDelICDS", r.Protocol.ldel_graph);
            ]
          in
          comm_values r
          @ List.concat_map
              (fun (name, g) ->
                let d = M.degree_stats g in
                [
                  (name ^ " deg max", float_of_int d.M.deg_max);
                  (name ^ " deg avg", d.M.deg_avg);
                ])
              graphs)
        (deployments cfg ~n ~radius))

let pp_series fmt = function
  | [] -> ()
  | series ->
    (* one array per curve: indexing rows is O(1), and a curve shorter
       than the x column renders a blank cell instead of raising *)
    let cols = List.map (fun s -> Array.of_list s.points) series in
    let xs = List.map fst (List.hd series).points in
    Format.fprintf fmt "%-10s" "x";
    List.iter (fun s -> Format.fprintf fmt " %22s" s.label) series;
    Format.pp_print_newline fmt ();
    List.iteri
      (fun i x ->
        Format.fprintf fmt "%-10g" x;
        List.iter
          (fun col ->
            if i < Array.length col then
              Format.fprintf fmt " %22.3f" (snd col.(i))
            else Format.fprintf fmt " %22s" "-")
          cols;
        Format.pp_print_newline fmt ())
      xs

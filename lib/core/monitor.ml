module Csr = Netgraph.Csr
module Components = Netgraph.Components
module Planarity = Netgraph.Planarity
module Metrics = Netgraph.Metrics

let c_rounds = Obs.counter "monitor.rounds"
let c_violations = Obs.counter "monitor.violations"

type thresholds = {
  max_crossings : float;
  max_extra_components : float;
  max_domination_gaps : float;
  max_cds_extra_parts : float;
  max_degree : float;
  max_len_stretch : float;
  max_hop_stretch : float;
}

(* The stretch limits are operational, not the lemmas' worst cases:
   Lemma 6's constant 6 through the Keil–Gutwin Delaunay factor for
   length, and twice Lemma 5's 3h+2 slope for hops (Lemma 7 adds a
   deliberately loose per-link constant the paper itself calls "very
   large", so the proved bound would never fire). *)
let default_thresholds =
  {
    max_crossings = 0.;
    max_extra_components = 0.;
    max_domination_gaps = 0.;
    max_cds_extra_parts = 0.;
    max_degree = float_of_int Bounds.icds_degree;
    max_len_stretch =
      Bounds.delaunay_stretch *. float_of_int Bounds.length_stretch;
    max_hop_stretch = (2. *. float_of_int Bounds.hop_stretch) +. 2.;
  }

type violation = {
  v_round : int;
  v_probe : string;
  v_value : float;
  v_limit : float;
  v_node : int;
}

type t = {
  thresholds : thresholds;
  stretch_sources : int;
  seed : int64;
  jobs : int;
  telemetry : Obs.Telemetry.t;
  mutable all_violations : violation list; (* reversed *)
  mutable last_messages : int;
}

let engine_messages () =
  Obs.value (Obs.counter "distsim.messages")
  + Obs.value (Obs.counter "distsim.async.sent")

let create ?(thresholds = default_thresholds) ?(stretch_sources = 8)
    ?(seed = 0L) ?(jobs = 1) () =
  {
    thresholds;
    stretch_sources = max 1 stretch_sources;
    seed;
    jobs;
    telemetry = Obs.Telemetry.create ();
    all_violations = [];
    last_messages = engine_messages ();
  }

let telemetry t = t.telemetry
let violations t = List.rev t.all_violations
let healthy t = t.all_violations = []
let thresholds t = t.thresholds

let invariants t =
  [
    ("crossings", t.thresholds.max_crossings);
    ("extra_components", t.thresholds.max_extra_components);
    ("domination_gaps", t.thresholds.max_domination_gaps);
    ("cds_extra_parts", t.thresholds.max_cds_extra_parts);
    ("deg_max", t.thresholds.max_degree);
    ("len_stretch_max", t.thresholds.max_len_stretch);
    ("hop_stretch_max", t.thresholds.max_hop_stretch);
  ]

(* distinct stretch sources for this round, reproducible from
   (seed, round) *)
let pick_sources t ~round n =
  let ids = Array.init n Fun.id in
  let rng =
    Wireless.Rand.create
      (Int64.logxor t.seed (Int64.of_int ((round * 0x9e3779b1) lor 1)))
  in
  Wireless.Rand.shuffle rng ids;
  Array.sub ids 0 (min t.stretch_sources n)

let observe t ~round ?(extra = []) (bb : Backbone.t) =
  Obs.span "monitor.observe" @@ fun () ->
  Obs.incr c_rounds;
  let s = bb.Backbone.snap in
  let pts = s.Shard.points in
  let n = Array.length pts in
  let round_violations = ref [] in
  let record name v = Obs.Telemetry.record t.telemetry ~round name v in
  let gate name v limit node =
    record name v;
    if v > limit then begin
      let viol =
        { v_round = round; v_probe = name; v_value = v; v_limit = limit;
          v_node = node }
      in
      t.all_violations <- viol :: t.all_violations;
      round_violations := viol :: !round_violations;
      Obs.incr c_violations;
      Obs.Recorder.record
        (Obs.Recorder.Monitor_violation
           { round; probe = name; value = v; limit; node });
      if !Obs.Trace.on then
        Obs.Trace.alert ~round ~probe:name ~value:v ~limit ~node
    end
  in
  (* geometric planarity of the planar backbone *)
  let crossings = Planarity.crossing_pairs s.Shard.pldel pts in
  let cross_node =
    match crossings with ((u, _), _) :: _ -> u | [] -> -1
  in
  gate "crossings"
    (float_of_int (List.length crossings))
    t.thresholds.max_crossings cross_node;
  (* the routing structure must not disconnect what the radio graph
     connects *)
  let udg_parts = Components.count s.Shard.udg in
  let routing_parts = Components.count s.Shard.pldel' in
  gate "extra_components"
    (float_of_int (routing_parts - udg_parts))
    t.thresholds.max_extra_components (-1);
  (* MIS domination *)
  let roles = s.Shard.roles in
  let gaps = ref 0 and gap_node = ref (-1) in
  for u = 0 to n - 1 do
    if
      roles.(u) = Mis.Dominatee
      && not
           (Csr.fold_neighbors s.Shard.udg u
              (fun seen v -> seen || roles.(v) = Mis.Dominator)
              false)
    then begin
      if !gap_node < 0 then gap_node := u;
      incr gaps
    end
  done;
  gate "domination_gaps" (float_of_int !gaps) t.thresholds.max_domination_gaps
    !gap_node;
  (* CDS connectivity: one backbone part per UDG component *)
  let labels = Csr.component_labels s.Shard.cds in
  let parts = Hashtbl.create 16 in
  Array.iteri
    (fun u is_bb ->
      if is_bb then Hashtbl.replace parts labels.(u) ())
    s.Shard.backbone;
  gate "cds_extra_parts"
    (float_of_int (Hashtbl.length parts - udg_parts))
    t.thresholds.max_cds_extra_parts (-1);
  (* Lemma 8 degree bound on the induced backbone *)
  let deg_max = ref 0 and deg_node = ref (-1) in
  for u = 0 to n - 1 do
    let d = Csr.degree s.Shard.icds u in
    if d > !deg_max then begin
      deg_max := d;
      deg_node := u
    end
  done;
  gate "deg_max" (float_of_int !deg_max) t.thresholds.max_degree !deg_node;
  (* sampled stretch of the routing structure over the UDG; a
     disconnected sampled pair surfaces as infinite stretch *)
  let len_max, hop_max =
    if n = 0 then (1., 1.)
    else
      let sources = pick_sources t ~round n in
      match
        Metrics.sampled_stretch ~jobs:t.jobs ~sources
          ~base:s.Shard.udg ~sub:s.Shard.pldel' pts
      with
      | { Metrics.len_max; hop_max; _ } -> (len_max, hop_max)
      | exception Invalid_argument _ -> (infinity, infinity)
  in
  gate "len_stretch_max" len_max t.thresholds.max_len_stretch (-1);
  gate "hop_stretch_max" hop_max t.thresholds.max_hop_stretch (-1);
  (* runtime gauges: recorded, never gated *)
  let backbone_nodes = ref 0 in
  Array.iter
    (fun b -> if b then incr backbone_nodes)
    s.Shard.backbone;
  record "backbone_nodes" (float_of_int !backbone_nodes);
  record "backbone_edges"
    (float_of_int (Csr.edge_count s.Shard.pldel'));
  let msgs = engine_messages () in
  record "messages" (float_of_int (msgs - t.last_messages));
  t.last_messages <- msgs;
  let gc = Gc.quick_stat () in
  record "gc_heap_words" (float_of_int gc.Gc.heap_words);
  record "gc_minor_words" gc.Gc.minor_words;
  List.iter (fun (name, v) -> record name v) extra;
  List.rev !round_violations

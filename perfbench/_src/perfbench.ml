(* perfbench: the repository benchmark.

   One run serves one workload for a fixed number of seconds and prints
   a stamp line, then one JSON result line:

     perfbench --workload W --seed N --seconds S --trace 0|1

   Workloads (README.md next to run.py explains why each was chosen):
     build-100k      repeated sharded builds of one n=1e5 deployment
     churn-open-20k  open-loop routing at 5000 q/s with periodic rebuilds
     paper-sweep     the Section IV grid: build, protocol, quality

   The benchmark generates every input from the seed and calls only
   public library entry points; all timing happens out here, around
   those calls.  With --trace 1 the same timed phase runs twice, first
   with the Obs registry off and then on, and the registry's counters
   and spans become the per-layer metrics. *)

module P = Geometry.Point
module Csr = Netgraph.Csr
module Pool = Netgraph.Pool
module View = Netgraph.View
module Bb = Core.Backbone
module W = Serve.Workload
module E = Serve.Engine
module Store = Serve.Store

(* ------------------------------------------------------------------ *)
(* Clock, exact order statistics                                       *)
(* ------------------------------------------------------------------ *)

let now_s () = Obs.clock_us () /. 1e6

let timed f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

let sorted_copy xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

(* Nearest-rank order statistic of an ascending array; [bp] is the
   rank in basis points (5000 = median, 9900 = p99), kept integral so
   the rank never suffers float rounding. *)
let rank sorted bp =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let k = ((bp * n) + 9_999) / 10_000 in
    sorted.(max 0 (min (n - 1) (k - 1)))

let percentile xs bp = rank (sorted_copy xs) bp
let median_l l = percentile (Array.of_list l) 5_000

(* [f ()] run [k] times, each after a full major collection so every
   run starts from the same heap state: the first result (the others
   are dropped at once, so they add no heap) and the median time *)
let repeated k f =
  let runs =
    List.init k (fun i ->
        Gc.full_major ();
        let x, t = timed f in
        ((if i = 0 then Some x else None), t))
  in
  (Option.get (fst (List.hd runs)), median_l (List.map snd runs))

(* The defining property of a nearest-rank order statistic, checked by
   counting rather than sorting. *)
let is_rank_stat xs bp v =
  let n = Array.length xs in
  let k = max 1 (((bp * n) + 9_999) / 10_000) in
  let le = Array.fold_left (fun a x -> if x <= v then a + 1 else a) 0 xs in
  let lt = Array.fold_left (fun a x -> if x < v then a + 1 else a) 0 xs in
  lt < k && le >= k

(* Self-test on the shape that defeats streaming sketches: a bimodal
   latency sample (60% fast reads near 33 us, 40% stalled behind a
   rebuild near 1.2 s), interleaved so no prefix looks like the whole. *)
let self_test () =
  let errs = ref [] in
  let check name ok = if not ok then errs := name :: !errs in
  let n = 10_000 in
  let xs =
    Array.init n (fun i ->
        if i mod 5 < 3 then 30. +. float_of_int (i mod 7)
        else 1.2e6 +. (float_of_int (i mod 11) *. 1e4))
  in
  List.iter
    (fun bp ->
      check
        (Printf.sprintf "bimodal rank %d" bp)
        (is_rank_stat xs bp (percentile xs bp)))
    [ 1; 5_000; 5_999; 6_000; 6_001; 9_000; 9_900; 9_990; 10_000 ];
  check "bimodal p50 in the fast mode" (percentile xs 5_000 <= 36.);
  check "bimodal p60 is the fast maximum" (percentile xs 6_000 = 36.);
  check "bimodal p99 in the slow mode" (percentile xs 9_900 >= 1.2e6);
  let ys = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "1..100 p50" (percentile ys 5_000 = 50.);
  check "1..100 p99" (percentile ys 9_900 = 99.);
  check "1..100 p100" (percentile ys 10_000 = 100.);
  check "1..100 p1" (percentile ys 100 = 1.);
  check "single" (percentile [| 7. |] 9_900 = 7.);
  check "empty" (Float.is_nan (percentile [||] 5_000));
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Result accumulation                                                  *)
(* ------------------------------------------------------------------ *)

type out = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable e2e : (string * float) list;
  mutable layer : (string * float) list;
  mutable jobs : (string * int) list;
}

let put o name v = o.e2e <- (name, v) :: List.remove_assoc name o.e2e

let put_layer o name v =
  o.layer <- (name, v) :: List.remove_assoc name o.layer

(* [j], recorded for the stamp as the jobs that [role] runs at *)
let at o role j =
  o.jobs <- (role, j) :: List.remove_assoc role o.jobs;
  j

(* A failed output check: counted against the workload and printed
   with its reason on stderr. *)
let wrong o ?(count = 1) fmt =
  Printf.ksprintf
    (fun s ->
      o.correct <- false;
      o.failed <- o.failed + count;
      Printf.eprintf "perfbench: check failed: %s\n%!" s)
    fmt

let t_launch = Obs.clock_us ()

let info fmt =
  Printf.ksprintf
    (fun s ->
      Printf.eprintf "perfbench: [%6.1f s] %s\n%!" ((Obs.clock_us () -. t_launch) /. 1e6) s)
    fmt

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8. /. 1e6

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* ------------------------------------------------------------------ *)
(* Inputs                                                               *)
(* ------------------------------------------------------------------ *)

let radius = 25.

(* constant density: about 19.6 neighbours per node at R = 25 *)
let side_of n = 10. *. sqrt (float_of_int n)

let seed64 seed tag =
  Int64.add
    (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
    (Int64.of_int tag)

let rng seed tag = Wireless.Rand.create (seed64 seed tag)

let config ?(partition = Bb.Config.Auto) ~radius ~jobs () =
  { Bb.Config.default with Bb.Config.radius; jobs; partition }

(* a connected uniform deployment at R = 25 and its snapshot: draws are
   repeated until the snapshot's UDG is connected *)
let connected_snapshot seed tag ~n ~side ~jobs =
  let r = rng seed tag in
  let rec draw attempt =
    let pts = Wireless.Deploy.uniform r ~n ~side in
    let snap, tb = timed (fun () -> Bb.snapshot (config ~radius ~jobs ()) pts) in
    if Csr.is_connected snap.Core.Shard.udg then (pts, snap, tb)
    else if attempt >= 50 then failwith "no connected deployment in 50 draws"
    else draw (attempt + 1)
  in
  draw 1

let connected seed tag ~n ~side ~radius =
  fst
    (Wireless.Deploy.connected_uniform (rng seed tag) ~n ~side ~radius
       ~max_attempts:5_000)

(* every position moved by up to +-2 per axis, kept inside the square *)
let jitter r ~side pts =
  Array.map
    (fun p ->
      let c v = Float.min side (Float.max 0. v) in
      P.make
        (c (p.P.x +. Wireless.Rand.float r 4. -. 2.))
        (c (p.P.y +. Wireless.Rand.float r 4. -. 2.)))
    pts

let route_mix = { W.greedy = 0.45; gfg = 0.35; compass = 0.15; stretch = 0. }
let route_skew = W.Hotspot { nodes = 64; frac = 0.3 }
let batch_size = 4096

(* [k] closed-loop batches of [batch_size] queries, each drawing its own
   hotspot set, so where one set of hot nodes happens to land cannot
   decide a whole run's figures *)
let batches ?(mix = route_mix) seed tag ~n ~k =
  Array.init k (fun b ->
      W.generate ~seed:(seed64 seed (tag + (1000 * b))) ~n ~count:batch_size ~mix
        ~skew:route_skew ())

(* An open-loop stream at [rate] queries/s over [seconds], drawn a
   quarter second at a time, each quarter with its own hotspot set. *)
let open_stream seed tag ~n ~rate ~seconds =
  let per = int_of_float (rate /. 4.) in
  let chunks =
    List.init (max 1 (int_of_float (Float.ceil (4. *. seconds)))) (fun c ->
        let w =
          W.generate ~seed:(seed64 seed (tag + (1000 * c))) ~n ~count:per
            ~mix:route_mix ~skew:route_skew ~rate ()
        in
        { w with W.arrival_us = Array.map (fun a -> a +. (2.5e5 *. float_of_int c)) w.W.arrival_us })
  in
  let cat f = Array.concat (List.map f chunks) in
  {
    (List.hd chunks) with
    W.count = List.length chunks * per;
    kind = cat (fun w -> w.W.kind);
    src = cat (fun w -> w.W.src);
    dst = cat (fun w -> w.W.dst);
    arrival_us = cat (fun w -> w.W.arrival_us);
  }

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

let digest c =
  Csr.fold_edges c (fun h u v -> ((((h * 31) + u) * 1_000_003) + v) land 0x3FFF_FFFF_FFFF) 17

(* edge counts of the UDG, CDS, PLDel(ICDS) and its primed variant,
   plus digests of the edge sets so equal counts cannot hide different
   graphs *)
let signature (s : Core.Shard.snapshot) =
  let open Core.Shard in
  [|
    Csr.edge_count s.udg;
    Csr.edge_count s.cds;
    Csr.edge_count s.pldel;
    Csr.edge_count s.pldel';
    digest s.cds;
    digest s.pldel;
    digest s.pldel';
  |]

let pp_sig s =
  String.concat "/" (Array.to_list (Array.map string_of_int s))

(* Planarity.crossing_count_v is an all-pairs scan, so at n = 1e5 it is
   applied per window: square cells of side [cell], each checked over
   the edges whose both endpoints lie within the cell grown by the
   longest edge.  Two crossing edges meet at a point inside some cell
   and both lie within one edge length of it, so every crossing shows
   up in at least one window (some in several: the sum is zero exactly
   when the graph is plane). *)
let windowed_crossings (g : Csr.t) (pts : P.t array) ~reach ~cell =
  let lo_x = Array.fold_left (fun a p -> Float.min a p.P.x) infinity pts
  and lo_y = Array.fold_left (fun a p -> Float.min a p.P.y) infinity pts
  and hi_x = Array.fold_left (fun a p -> Float.max a p.P.x) neg_infinity pts
  and hi_y = Array.fold_left (fun a p -> Float.max a p.P.y) neg_infinity pts in
  let cols = max 1 (int_of_float ((hi_x -. lo_x) /. cell) + 1)
  and rows = max 1 (int_of_float ((hi_y -. lo_y) /. cell) + 1) in
  let bucket = Array.make (cols * rows) [] in
  let cell_of x lo lim = max 0 (min (lim - 1) (int_of_float ((x -. lo) /. cell))) in
  Csr.iter_edges g (fun u v ->
      let p = pts.(u) and q = pts.(v) in
      let x0 = Float.min p.P.x q.P.x and x1 = Float.max p.P.x q.P.x in
      let y0 = Float.min p.P.y q.P.y and y1 = Float.max p.P.y q.P.y in
      for cx = cell_of (x1 -. reach) lo_x cols to cell_of (x0 +. reach) lo_x cols do
        for cy = cell_of (y1 -. reach) lo_y rows to cell_of (y0 +. reach) lo_y rows do
          let bx0 = lo_x +. (float_of_int cx *. cell) -. reach
          and by0 = lo_y +. (float_of_int cy *. cell) -. reach in
          let bx1 = bx0 +. cell +. (2. *. reach) and by1 = by0 +. cell +. (2. *. reach) in
          if x0 >= bx0 && x1 <= bx1 && y0 >= by0 && y1 <= by1 then
            bucket.((cy * cols) + cx) <- (u, v) :: bucket.((cy * cols) + cx)
        done
      done);
  Array.fold_left
    (fun acc edges ->
      if edges = [] then acc
      else begin
        let local = Hashtbl.create 64 and ids = ref [] and next = ref 0 in
        let id u =
          match Hashtbl.find_opt local u with
          | Some i -> i
          | None ->
            let i = !next in
            incr next;
            Hashtbl.add local u i;
            ids := u :: !ids;
            i
        in
        let es = List.map (fun (u, v) -> (id u, id v)) edges in
        let sub_pts = Array.of_list (List.rev_map (fun u -> pts.(u)) !ids) in
        let sub = Netgraph.Graph.of_edges !next es in
        acc + Netgraph.Planarity.crossing_count_v (View.of_graph sub) sub_pts
      end)
    0 bucket

let longest_edge (g : Csr.t) (pts : P.t array) =
  Csr.fold_edges g (fun a u v -> Float.max a (P.dist pts.(u) pts.(v))) 0.

(* ------------------------------------------------------------------ *)
(* Serving helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* route metrics from a list of engine results: delivery and hops are
   end-to-end, throughput and latency per-layer (they spread too much
   between runs to bound).  Latencies are exact order statistics of
   [latency_us], never the engine's sketches. *)
let serve_metrics o (rs : E.results list) ~wall_s =
  let total = List.fold_left (fun a r -> a + r.E.count) 0 rs in
  let lat =
    Array.concat
      (List.map
         (fun r ->
           if Array.length r.E.latency_us = 0 then [||]
           else Array.sub r.E.latency_us 0 r.E.count)
         rs)
  in
  let hops =
    Array.concat
      (List.map
         (fun r ->
           Array.of_list
             (List.filter_map
                (fun h -> if h >= 0 then Some (float_of_int h) else None)
                (Array.to_list (Array.sub r.E.hops 0 r.E.count))))
         rs)
  in
  let delivered = Array.length hops in
  let lat = sorted_copy lat in
  put o "delivered_frac" (float_of_int delivered /. float_of_int (max 1 total));
  put o "hops_p50" (percentile hops 5_000);
  put_layer o "serve.qps" (float_of_int total /. wall_s);
  put_layer o "serve.lat_p50_us" (rank lat 5_000);
  put_layer o "serve.lat_p99_us" (rank lat 9_900);
  (total, delivered)

let same_hops (a : E.results) (b : E.results) =
  let bad = ref 0 in
  for q = 0 to a.E.count - 1 do
    if a.E.hops.(q) <> b.E.hops.(q) || a.E.epoch.(q) <> b.E.epoch.(q) then incr bad
  done;
  !bad

(* caller-domain allocation per query and major collections over a
   serving phase *)
let serve_alloc o (rs : E.results list) ~majors =
  let words = List.fold_left (fun a r -> a +. r.E.minor_words) 0. rs in
  let count = List.fold_left (fun a r -> a + r.E.count) 0 rs in
  put_layer o "serve.minor_words_per_query" (words /. float_of_int (max 1 count));
  put_layer o "serve.major_collections" (float_of_int majors)

(* Per-kind sub-streams through the same Engine.run: service time per
   query (mean of the per-query latencies), delivery, and GFG's
   allocation measured at jobs = 1 so the caller domain does all the
   work. *)
let split_by_kind o ~seed ~store ~n ~jobs =
  let jobs = at o "split-serve" jobs in
  let one name mix =
    let bs = batches ~mix seed 77 ~n ~k:2 in
    let rs = Array.to_list (Array.map (fun b -> E.run ~jobs ~latency:true ~store b) bs) in
    let count = List.fold_left (fun a r -> a + r.E.count) 0 rs in
    let us =
      List.fold_left
        (fun a r -> a +. Array.fold_left ( +. ) 0. (Array.sub r.E.latency_us 0 r.E.count))
        0. rs
    in
    let del =
      List.fold_left
        (fun a r -> a + Array.fold_left (fun a h -> if h >= 0 then a + 1 else a) 0 r.E.hops)
        0 rs
    in
    put_layer o ("routing." ^ name ^ "_us") (us /. float_of_int count);
    put_layer o ("routing." ^ name ^ "_delivered_frac") (float_of_int del /. float_of_int count);
    bs
  in
  let z = { W.greedy = 0.; gfg = 0.; compass = 0.; stretch = 0. } in
  ignore (one "greedy" { z with W.greedy = 1. });
  let g = one "gfg" { z with W.gfg = 1. } in
  ignore (one "compass" { z with W.compass = 1. });
  let r = E.run ~jobs:(at o "gfg-alloc" 1) ~latency:false ~store g.(0) in
  put_layer o "routing.gfg_words_per_query" (r.E.minor_words /. float_of_int r.E.count)

(* ------------------------------------------------------------------ *)
(* The Section IV sweep                                                 *)
(* ------------------------------------------------------------------ *)

let sweep_side = 200.
let sweep_ns = [ 20; 30; 40; 50; 60; 70; 80; 90; 100 ]
let sweep_radii = [ 20.; 25.; 30.; 35.; 40.; 45.; 50.; 55.; 60. ]

let grid_n_leg = List.map (fun n -> (n, 60.)) sweep_ns
let grid_full = grid_n_leg @ List.map (fun r -> (500, r)) sweep_radii

let deployments seed grid =
  List.mapi
    (fun i (n, r) -> (n, r, connected seed (1000 + i) ~n ~side:sweep_side ~radius:r))
    grid

(* LDel(ICDS) transmissions over one pass of a grid, in total and by
   protocol phase, and the nodes they serve *)
type sweep_counts = { mutable msgs : int; mutable nodes : int; by_phase : int array }

let msgs_per_node c = float_of_int c.msgs /. float_of_int (max 1 c.nodes)

(* One instance: Backbone.run (n < 5000, so the legacy serial path),
   the distributed protocol and, with [quality], the Table I quality
   rows.  Returns the instance's time, its Backbone.run and Protocol.run
   times, and the protocol's result.  The check: the protocol's planar
   backbone equals the centralized one, and every spanning structure is
   connected. *)
let sweep_instance o ~jobs ~quality (n, r, pts) =
  let t0 = now_s () in
  let bb, t_bb = timed (fun () -> Bb.run (config ~radius:r ~jobs ()) pts) in
  let pr, t_pr = timed (fun () -> Core.Protocol.run pts ~radius:r) in
  let rows = if quality then Core.Quality.rows ~jobs bb else [] in
  let t = now_s () -. t0 in
  o.attempted <- o.attempted + 1;
  let problems =
    (if Netgraph.Graph.equal pr.Core.Protocol.ldel_graph bb.Bb.ldel_icds_g then []
     else [ "protocol PLDel(ICDS) differs from the centralized build" ])
    @ List.filter_map
        (fun (name, g, _) ->
          if Netgraph.Components.is_connected g then None
          else Some (name ^ " is disconnected"))
        (("UDG", bb.Bb.udg, `Spans_all) :: Bb.spanning_backbone_structures bb)
    @ if quality && rows = [] then [ "no quality rows" ] else []
  in
  if problems <> [] then
    wrong o "sweep n=%d R=%g: %s" n r (String.concat "; " problems);
  ((t, t_bb, t_pr), pr)

type sweep = {
  passes : int;
  sweep_s : float;
  build_s : float;
  proto_s : float;
  counts : sweep_counts;
}

(* Passes over [insts], each after a full major collection, until
   [stop passes_done] holds.  The times are those of one pass with every
   instance at its median over the passes, so a spike inside one
   instance's run moves none of them. *)
let sweep_passes o ~jobs ~quality ~stop insts =
  let c = { msgs = 0; nodes = 0; by_phase = Array.make 4 0 } in
  let count (n, _, _) pr =
    c.msgs <- c.msgs + Distsim.Engine.total_sent (Core.Protocol.ldel_stats pr);
    c.nodes <- c.nodes + n;
    List.iteri
      (fun i st -> c.by_phase.(i) <- c.by_phase.(i) + Distsim.Engine.total_sent st)
      Core.Protocol.[ pr.stats_cluster; pr.stats_connector; pr.stats_status; pr.stats_ldel ]
  in
  let runs = ref [] in
  while !runs = [] || not (stop (List.length !runs)) do
    Gc.full_major ();
    let first = !runs = [] in
    let pass =
      List.map
        (fun inst ->
          let times, pr = sweep_instance o ~jobs ~quality inst in
          if first then count inst pr;
          times)
        insts
    in
    runs := Array.of_list pass :: !runs
  done;
  let at_median f =
    List.fold_left ( +. ) 0.
      (List.mapi (fun i _ -> median_l (List.map (fun p -> f p.(i)) !runs)) insts)
  in
  {
    passes = List.length !runs;
    sweep_s = at_median (fun (t, _, _) -> t);
    build_s = at_median (fun (_, t, _) -> t);
    proto_s = at_median (fun (_, _, t) -> t);
    counts = c;
  }

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the Obs registry                             *)
(* ------------------------------------------------------------------ *)

(* [f ()] with the registry on, and the registry's snapshot after it *)
let with_registry f =
  Obs.reset ();
  Obs.set_enabled true;
  let r = Fun.protect ~finally:(fun () -> Obs.set_enabled false) f in
  (r, Obs.Snapshot.capture ())

let counter (s : Obs.Snapshot.t) name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name s.Obs.Snapshot.counters))

(* seconds summed over the spans whose path satisfies [f] *)
let span_where (s : Obs.Snapshot.t) f =
  List.fold_left
    (fun a (sp : Obs.Snapshot.span_stats) ->
      if f sp.Obs.Snapshot.path then a +. sp.Obs.Snapshot.seconds else a)
    0. s.Obs.Snapshot.spans

(* the span path's last component is [name] *)
let last_is name path =
  path = name
  || String.length path > String.length name
     && String.sub path (String.length path - String.length name - 1)
          (String.length name + 1)
        = "/" ^ name

let layer_from_registry o (s : Obs.Snapshot.t) =
  let c = counter s and span_where = span_where s in
  let g name = Option.value ~default:0. (List.assoc_opt name s.Obs.Snapshot.gauges) in
  let orient = c "predicates.orient2d" in
  put_layer o "geometry.orient2d_calls" orient;
  put_layer o "geometry.orient2d_exact_frac"
    (if orient > 0. then c "predicates.orient2d.exact" /. orient else 0.);
  put_layer o "geometry.incircle_calls" (c "predicates.incircle");
  put_layer o "geometry.grid_queries" (c "grid.queries");
  put_layer o "delaunay.triangulations" (c "delaunay.triangulations");
  put_layer o "delaunay.insertions" (c "delaunay.insertions");
  List.iter
    (fun st -> put_layer o ("shard." ^ st ^ "_s") (span_where (last_is ("shard." ^ st))))
    [ "tiling"; "udg"; "mis"; "connectors"; "ldel"; "assemble" ];
  put_layer o "shard.tiles" (g "shard.tiles");
  put_layer o "shard.tile_pop_max"
    (match List.assoc_opt "shard.tile_pop" s.Obs.Snapshot.dists with
     | Some d -> d.Obs.Snapshot.max
     | None -> 0.);
  put_layer o "pool.tasks" (c "pool.tasks");
  put_layer o "pool.utilization" (g "pool.utilization");
  List.iter
    (fun (name, path) -> put_layer o name (span_where (( = ) path)))
    [
      ("backbone.run_s", "backbone");
      ("backbone.udg_s", "backbone/udg");
      ("backbone.mis_s", "backbone/cds/mis");
      ("backbone.connectors_s", "backbone/cds/connectors");
      ("backbone.ldel_s", "backbone/ldel");
      ("backbone.links_s", "backbone/links");
    ];
  put_layer o "distsim.messages" (c "distsim.messages");
  put_layer o "distsim.rounds" (c "distsim.rounds");
  put_layer o "metrics.stretch_s" (span_where (last_is "metrics.stretch"));
  put_layer o "metrics.sssp" (c "metrics.sssp");
  put_layer o "serve.batches" (c "serve.batches")

(* The names every traced run reports, zero where the workload's timed
   phase never reaches the layer. *)
let layer_names =
  [
    "geometry.orient2d_calls"; "geometry.orient2d_exact_frac";
    "geometry.incircle_calls"; "geometry.grid_queries";
    "delaunay.triangulations"; "delaunay.insertions";
    "shard.tiling_s"; "shard.udg_s"; "shard.mis_s"; "shard.connectors_s";
    "shard.ldel_s"; "shard.assemble_s"; "shard.minor_words";
    "shard.major_collections"; "shard.tiles"; "shard.tile_pop_max";
    "pool.tasks"; "pool.utilization";
    "backbone.run_s"; "backbone.udg_s"; "backbone.mis_s";
    "backbone.connectors_s"; "backbone.ldel_s"; "backbone.links_s";
    "protocol.run_s"; "distsim.messages"; "distsim.rounds";
    "protocol.msgs_cluster"; "protocol.msgs_connectors";
    "protocol.msgs_status"; "protocol.msgs_ldel";
    "metrics.stretch_s"; "metrics.sssp";
    "routing.greedy_us"; "routing.gfg_us"; "routing.compass_us";
    "routing.greedy_delivered_frac"; "routing.gfg_delivered_frac";
    "routing.compass_delivered_frac"; "routing.gfg_words_per_query";
    "serve.qps"; "serve.lat_p50_us"; "serve.lat_p99_us";
    "serve.minor_words_per_query"; "serve.major_collections"; "serve.batches";
    "store.snapshot_s"; "store.publish_s";
    "obs.overhead_frac";
  ]

(* Run [phase] untraced, then again with the registry on; the second
   run's registry snapshot feeds the per-layer metrics, and [cost]
   (lower is better) of the two runs gives the tracing overhead. *)
let traced o ~phase ~cost =
  let base = cost (phase ()) in
  let r, s = with_registry phase in
  layer_from_registry o s;
  put_layer o "obs.overhead_frac" ((cost r /. base) -. 1.);
  r

(* Per-layer totals of a traced phase divided by its [k] operations *)
let per_op o k names =
  List.iter
    (fun name ->
      match List.assoc_opt name o.layer with
      | Some v -> put_layer o name (v /. float_of_int (max 1 k))
      | None -> ())
    names

(* the shard.* work per snapshot build, so the stage times add up to
   one build *)
let per_build o builds =
  per_op o builds
    [ "shard.tiling_s"; "shard.udg_s"; "shard.mis_s"; "shard.connectors_s";
      "shard.ldel_s"; "shard.assemble_s"; "shard.minor_words";
      "shard.major_collections"; "pool.tasks" ]

(* ------------------------------------------------------------------ *)
(* Companion measurements                                               *)
(* ------------------------------------------------------------------ *)

(* Every workload reports every end-to-end metric.  Those its timed
   phase does not produce come from a short companion run on the
   workload's own data, after the timed phase and outside any trace.
   Each timed companion leg starts after a full major collection, so it
   does not pay for garbage the timed phase left behind. *)

(* the n-leg of the Section IV grid (R = 60, n = 20..100) with six
   instances per point, run five times, quality rows included: sweep_s
   is the leg's time with every instance at its median, msgs_per_node
   the leg's LDel(ICDS) transmissions per node.  Its instances are
   checked, but counted apart from the workload's own operations. *)
let companion_sweep o ~seed =
  info "companion sweep";
  let scratch = { attempted = 0; failed = 0; correct = true; e2e = []; layer = []; jobs = [] } in
  let insts = deployments seed (List.concat (List.init 6 (fun _ -> grid_n_leg))) in
  let sw =
    sweep_passes scratch ~jobs:(at o "companion-sweep" 1) ~quality:true
      ~stop:(fun k -> k >= 5) insts
  in
  if scratch.failed > 0 then
    wrong o "companion sweep: %d of %d instance checks failed" scratch.failed scratch.attempted;
  put o "sweep_s" sw.sweep_s;
  put o "msgs_per_node" (msgs_per_node sw.counts)

(* delivery and hops of [k] closed-loop batches over [store]; the
   per-query hop log of the first four, served again at jobs = 1, must
   repeat *)
let companion_serve o ~seed ~store ~n ~jobs ~k =
  info "companion serve";
  let bs = Array.to_list (batches seed 55 ~n ~k) in
  let jobs = at o "companion-serve" jobs and rerun_jobs = at o "companion-rerun" 1 in
  let rs = List.map (fun b -> E.run ~jobs ~latency:false ~store b) bs in
  ignore (serve_metrics o rs ~wall_s:1.);
  List.iteri
    (fun i (b, r) ->
      if i < 4 then begin
        let bad = same_hops r (E.run ~jobs:rerun_jobs ~latency:false ~store b) in
        if bad > 0 then wrong o "companion serve batch %d: %d hops differ on rerun" i bad
      end)
    (List.combine bs rs)

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

(* build-100k: repeated sharded builds of one uniform n = 1e5
   deployment on 2 domains, each published into a store.  Set-up draws
   the deployment and creates the store from a first build.  Checked
   against a reference build at jobs = 1 under a different tiling, and
   the planar backbone against crossings. *)
let build_100k o ~seed ~seconds ~trace =
  let n = 100_000 and jobs = at o "build" 2 in
  let side = side_of n in
  let cfg = config ~radius ~jobs () in
  let (pts, store), setup_s =
    repeated 3 (fun () ->
        let pts = Wireless.Deploy.uniform (rng seed 1) ~n ~side in
        (pts, Store.create (Bb.snapshot cfg pts)))
  in
  put o "setup_s" setup_s;
  let phase () =
    let builds = ref [] and pubs = ref [] and sigs = ref [] in
    let minor = ref 0. and major = ref 0 in
    let last = ref None in
    let t_end = now_s () +. seconds in
    while !builds = [] || now_s () < t_end do
      (* from the same heap every time: left to run on, the collector
         carried one build's garbage into the next and the heap's top
         moved between 520 and 660 MB from run to run *)
      Gc.full_major ();
      let m0 = Gc.minor_words () and c0 = major_collections () in
      let snap, tb = timed (fun () -> Bb.snapshot cfg pts) in
      minor := !minor +. (Gc.minor_words () -. m0);
      major := !major + (major_collections () - c0);
      let _, tp = timed (fun () -> Store.publish store snap) in
      builds := tb :: !builds;
      pubs := tp :: !pubs;
      sigs := signature snap :: !sigs;
      last := Some snap
    done;
    (!builds, !pubs, List.rev !sigs, !last, !minor, !major)
  in
  let cost (b, _, _, _, _, _) = median_l b in
  let builds, pubs, sigs, last, minor, major =
    if trace then traced o ~phase ~cost else phase ()
  in
  put o "peak_heap_mb" (peak_heap_mb ());
  put o "build_s" (median_l builds);
  put o "update_s" (median_l (List.map2 ( +. ) builds pubs));
  put_layer o "shard.minor_words" minor;
  put_layer o "shard.major_collections" (float_of_int major);
  per_build o (List.length builds);
  put_layer o "store.snapshot_s" (median_l builds);
  put_layer o "store.publish_s" (median_l pubs);
  o.attempted <- o.attempted + List.length sigs;
  info "build-100k: timed phase done, reference build";
  let reference =
    signature
      (Bb.snapshot
         (config ~partition:(Bb.Config.Tiles 3) ~radius ~jobs:(at o "reference-build" 1) ())
         pts)
  in
  List.iteri
    (fun i s ->
      if s <> reference then
        wrong o "build %d: %s, reference %s" i (pp_sig s) (pp_sig reference))
    sigs;
  info "build-100k: crossing check";
  let snap = Option.get last in
  let pldel = snap.Core.Shard.pldel in
  let crossings =
    windowed_crossings pldel pts ~reach:(longest_edge pldel pts) ~cell:(4. *. radius)
  in
  if crossings <> 0 then wrong o "pldel has %d crossings" crossings;
  info "build-100k: %d builds, signature %s" (List.length sigs) (pp_sig reference);
  if not trace then companion_serve o ~seed ~store ~n ~jobs ~k:8

(* churn-open-20k: an open loop at 5000 q/s, reads at jobs = 1; every
   5 s of arrivals the positions are jittered by +-2 and the snapshot
   is rebuilt and published from on_batch, on the serving domain.
   Runs shorter than 10 s rebuild every half run instead.

   The stream is served open-loop twice, from the same initial epoch.
   A 10 s stream stalls behind one rebuild, and its p99 is about 90% of
   that one rebuild's duration; over both passes the p99 rests on two. *)
let churn_open_20k o ~seed ~seconds ~trace =
  let n = 20_000 and rate = 5_000. and batch = 250 in
  let build_jobs = at o "build" 1 in
  (* batches between rebuilds: 5 s of arrivals, or half the run if shorter *)
  let every = int_of_float (rate *. Float.min 5. (seconds /. 2.)) / batch in
  let side = side_of n in
  let (pts0, snap0, store0), setup_s =
    repeated 3 (fun () ->
        let pts, snap, _ = connected_snapshot seed 4 ~n ~side ~jobs:build_jobs in
        (pts, snap, Store.create snap))
  in
  put o "setup_s" setup_s;
  let w = open_stream seed 5 ~n ~rate ~seconds in
  let count = w.W.count in
  (* one pass over [w] from the initial epoch; the log holds each
     rebuild's snapshot and publish times and its signature *)
  let serve ~jobs ~latency (w : W.t) =
    let store = Store.create snap0 in
    let pts = ref pts0 and epoch = ref 0 and log = ref [] in
    let on_batch b =
      if b > 0 && b mod every = 0 then begin
        incr epoch;
        let p' = jitter (rng seed (100 + !epoch)) ~side !pts in
        pts := p';
        let snap, tb = timed (fun () -> Bb.snapshot (config ~radius ~jobs:build_jobs ()) p') in
        let _, tp = timed (fun () -> Store.publish store snap) in
        log := (tb, tp, signature snap) :: !log
      end
    in
    let r = E.run ~jobs ~batch ~latency ~on_batch ~store w in
    (r, List.rev !log)
  in
  let phase () =
    let c0 = major_collections () in
    let jobs = at o "serve" 1 in
    let passes = List.init 2 (fun _ -> serve ~jobs ~latency:true w) in
    (passes, major_collections () - c0)
  in
  let due_p50 passes =
    percentile
      (Array.concat (List.map (fun (r, _) -> Array.sub r.E.latency_us 0 count) passes))
      5_000
  in
  let passes, majors =
    if trace then traced o ~phase ~cost:(fun (ps, _) -> due_p50 ps) else phase ()
  in
  let rs = List.map fst passes in
  serve_alloc o rs ~majors;
  per_build o (List.length (List.concat_map snd passes));
  put o "peak_heap_mb" (peak_heap_mb ());
  let wall = List.fold_left (fun a r -> a +. r.E.elapsed_s) 0. rs in
  let total, delivered = serve_metrics o rs ~wall_s:wall in
  o.attempted <- o.attempted + total;
  o.failed <- o.failed + (total - delivered);
  let rebuilds = snd (List.hd passes) in
  info "churn-open-20k: %d queries, %d delivered, %d rebuilds per pass, generator %.3f s late"
    total delivered (List.length rebuilds)
    (wall -. (2. *. float_of_int count /. rate));
  (* the same stream closed-loop at jobs = 2: identical hops and epochs,
     identical rebuilt snapshots, in both open passes and here *)
  let r2, rebuilds2 =
    serve ~jobs:(at o "replay" 2) ~latency:true { w with W.arrival_us = [||] }
  in
  (* The median comes from this replay: its latencies are service
     times.  Timed from due time, the median runs about three times
     the service time and swung between 15 and 36 us across runs with
     rebuild times steady: it measures how fast the engine's spin-wait
     gets its CPU back from the hypervisor.  Service times measured on
     one domain spread about twice as much from run to run as on two. *)
  let replay_p50 = percentile (Array.sub r2.E.latency_us 0 count) 5_000 in
  put_layer o "serve.lat_p50_us" replay_p50;
  info "churn-open-20k: p50 %.2f us from due time, %.2f us service time" (due_p50 passes)
    replay_p50;
  List.iter
    (fun (r', log) ->
      let bad = same_hops r' r2 in
      if bad > 0 then wrong o ~count:bad "%d queries differ between open- and closed-loop runs" bad;
      if List.map (fun (_, _, s) -> s) log <> List.map (fun (_, _, s) -> s) rebuilds2 then
        wrong o "rebuilt snapshots differ between runs")
    passes;
  (* two more timings of every epoch's rebuild and publish, so the
     update metrics rest on more than the rebuilds a run's arrivals
     trigger *)
  let extra =
    List.concat
      (List.init 2 (fun _ ->
           let store = Store.create snap0 and pts = ref pts0 in
           List.mapi
             (fun i _ ->
               let p' = jitter (rng seed (101 + i)) ~side !pts in
               pts := p';
               let snap, tb =
                 timed (fun () -> Bb.snapshot (config ~radius ~jobs:build_jobs ()) p')
               in
               let _, tp = timed (fun () -> Store.publish store snap) in
               (tb, tp, signature snap))
             rebuilds))
  in
  let all = List.concat_map snd passes @ rebuilds2 @ extra in
  let builds = List.map (fun (tb, _, _) -> tb) all in
  if builds = [] then wrong o "no rebuild ran"
  else begin
    put o "build_s" (median_l builds);
    put o "update_s" (median_l (List.map (fun (tb, tp, _) -> tb +. tp) all));
    put_layer o "store.snapshot_s" (median_l builds);
    put_layer o "store.publish_s" (median_l (List.map (fun (_, tp, _) -> tp) all))
  end;
  if trace then split_by_kind o ~seed ~store:store0 ~n ~jobs:1

(* The Table I quality rows of every grid instance, run once with the
   registry on: paper-sweep's metrics.* layer, which its timed passes
   leave out *)
let quality_layer o ~jobs insts =
  let bbs = List.map (fun (_, r, pts) -> Bb.run (config ~radius:r ~jobs ()) pts) insts in
  let (), s =
    with_registry (fun () ->
        List.iter
          (fun bb -> if Core.Quality.rows ~jobs bb = [] then wrong o "no quality rows")
          bbs)
  in
  put_layer o "metrics.stretch_s" (span_where s (last_is "metrics.stretch"));
  put_layer o "metrics.sssp" (counter s "metrics.sssp")

(* paper-sweep: the Section IV grid at jobs = 1, Backbone.run and
   Protocol.run on every instance, repeated whole until the time is up.
   The all-pairs quality rows would take two thirds of a pass and leave
   one pass per run, so they run only in the traced run, apart. *)
let paper_sweep o ~seed ~seconds ~trace =
  (* two deployments per grid point, as the Section IV figures average
     over instances: with one, the seed's draw alone moved the pass time
     by about 10% *)
  let insts, setup_s = repeated 11 (fun () -> deployments seed (grid_full @ grid_full)) in
  put o "setup_s" setup_s;
  let jobs = at o "sweep" 1 in
  let phase () =
    let t_end = now_s () +. seconds in
    sweep_passes o ~jobs ~quality:false ~stop:(fun _ -> now_s () >= t_end) insts
  in
  let sw = if trace then traced o ~phase ~cost:(fun sw -> sw.sweep_s) else phase () in
  put o "peak_heap_mb" (peak_heap_mb ());
  put o "sweep_s" sw.sweep_s;
  put o "build_s" sw.build_s;
  put o "msgs_per_node" (msgs_per_node sw.counts);
  (* the registry's figures per pass of the grid *)
  per_op o sw.passes
    (List.filter
       (fun name -> not (List.mem name [ "obs.overhead_frac"; "pool.utilization"; "geometry.orient2d_exact_frac" ]))
       layer_names);
  put_layer o "protocol.run_s" sw.proto_s;
  List.iteri
    (fun i name -> put_layer o ("protocol.msgs_" ^ name) (float_of_int sw.counts.by_phase.(i)))
    [ "cluster"; "connectors"; "status"; "ldel" ];
  if trace then quality_layer o ~jobs:(at o "quality" 1) insts
  else begin
    (* companions: the Section IV graphs are too small for steady routing
       figures, so serving and updates run on a constant-density n = 2e4
       deployment drawn from the same seed *)
    let n = 20_000 in
    let side = side_of n in
    let jobs = at o "companion-update" 1 in
    let pts, snap, _ = connected_snapshot seed 6 ~n ~side ~jobs in
    let store = Store.create snap in
    companion_serve o ~seed ~store ~n ~jobs:2 ~k:8;
    (* each update after a full major collection: left to run on, the
       collector's state after the sweep differs from seed to seed and
       moved these timings by 40% *)
    let ups =
      List.init 9 (fun i ->
          Gc.full_major ();
          let p' = jitter (rng seed (200 + i)) ~side pts in
          let snap, tb = timed (fun () -> Bb.snapshot (config ~radius ~jobs ()) p') in
          let _, tp = timed (fun () -> Store.publish store snap) in
          tb +. tp)
    in
    put o "update_s" (median_l ups)
  end

let workloads =
  [
    ("build-100k", build_100k);
    ("churn-open-20k", churn_open_20k);
    ("paper-sweep", paper_sweep);
  ]

(* ------------------------------------------------------------------ *)
(* Main                                                                 *)
(* ------------------------------------------------------------------ *)

let json_num v = Printf.sprintf "%.17g" v

let json_obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  (match self_test () with
   | [] -> ()
   | errs ->
     List.iter (Printf.eprintf "perfbench: self-test failed: %s\n") errs;
     exit 3);
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "perfbench: unknown workload %S\n" !workload;
      exit 2
  in
  Obs.set_enabled false;
  let o = { attempted = 0; failed = 0; correct = true; e2e = []; layer = []; jobs = [] } in
  let trace = !trace = 1 in
  if trace then List.iter (fun name -> put_layer o name 0.) layer_names;
  run o ~seed:!seed ~seconds:!seconds ~trace;
  (* Here the workload's own data is garbage.  Collections inside the
     sweep would otherwise mark it: build-100k keeps about 400 MB live,
     and its companion sweep times spread by 0.24 of their median. *)
  if (not trace) && not (List.mem_assoc "sweep_s" o.e2e) then companion_sweep o ~seed:!seed;
  print_endline
    (json_obj
       [
         ( "stamp",
           json_obj
             [
               ("workload", Printf.sprintf "%S" !workload);
               ("seed", string_of_int !seed);
               ( "jobs",
                 json_obj
                   (List.map
                      (fun (role, j) -> (role, string_of_int j))
                      (List.sort compare o.jobs)) );
               ("default_jobs", string_of_int (Pool.default_jobs ()));
               ("ocaml", Printf.sprintf "%S" Sys.ocaml_version);
             ] );
       ]);
  let metrics = if trace then o.layer else o.e2e in
  print_endline
    (json_obj
       [
         ("correct", string_of_bool o.correct);
         ("attempted", string_of_int o.attempted);
         ("failed", string_of_int o.failed);
         ( "metrics",
           json_obj (List.rev_map (fun (k, v) -> (k, json_num v)) metrics) );
       ])

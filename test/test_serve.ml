(* The route-query serving layer: epoch store, workload generator and
   the concurrent engine (lib/serve). *)

module P = Geometry.Point
module W = Serve.Workload
module E = Serve.Engine

let check = Alcotest.(check bool)

let instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  pts

let snapshot_of pts radius =
  Core.Backbone.snapshot
    {
      Core.Backbone.Config.default with
      Core.Backbone.Config.radius;
      jobs = 1;
    }
    pts

(* ---------------- store ---------------- *)

let test_store_epochs () =
  let pts = instance 91L 120 60. in
  let snap = snapshot_of pts 60. in
  let store = Serve.Store.create snap in
  let e0 = Serve.Store.pin store in
  Alcotest.(check int) "first epoch id" 0 (Serve.Store.id e0);
  Alcotest.(check int) "node count" (Array.length pts)
    (Serve.Store.node_count e0);
  check "udg reweighted for stretch" true
    (Netgraph.Csr.has_weights (Serve.Store.udg_w e0));
  let e1 = Serve.Store.publish store snap in
  Alcotest.(check int) "published id" 1 (Serve.Store.id e1);
  Alcotest.(check int) "pin sees the new epoch" 1
    (Serve.Store.id (Serve.Store.pin store));
  (* the old pin is still a fully usable generation *)
  Alcotest.(check int) "old pin unchanged" 0 (Serve.Store.id e0);
  check "old view still routes" true
    (Core.Routing.hierarchical (Serve.Store.snapshot e0) ~src:0
       ~dst:(Array.length pts - 1)
    <> None)

(* ---------------- workload ---------------- *)

let test_workload_determinism () =
  let gen () =
    W.generate ~seed:5L ~n:200 ~count:500 ~skew:(W.Zipf 0.9) ~rate:1000. ()
  in
  let a = gen () and b = gen () in
  check "kinds repeat" true (a.W.kind = b.W.kind);
  check "srcs repeat" true (a.W.src = b.W.src);
  check "dsts repeat" true (a.W.dst = b.W.dst);
  check "arrivals repeat" true (a.W.arrival_us = b.W.arrival_us);
  Alcotest.(check int) "arrival per query" 500 (Array.length a.W.arrival_us);
  (* open-loop arrivals are monotone at 1/rate spacing *)
  for i = 1 to 499 do
    if not (a.W.arrival_us.(i) > a.W.arrival_us.(i - 1)) then
      Alcotest.fail "arrivals must be strictly increasing"
  done;
  let c = W.generate ~seed:6L ~n:200 ~count:500 () in
  check "different seed differs" true (a.W.src <> c.W.src);
  check "closed loop has no arrivals" true (c.W.arrival_us = [||])

let test_workload_spellings () =
  let m = { W.greedy = 0.5; gfg = 0.25; compass = 0.25; stretch = 0. } in
  (match W.mix_of_string (W.mix_to_string m) with
  | Ok m' -> check "mix round-trips" true (m = m')
  | Error e -> Alcotest.fail e);
  (match W.mix_of_string "greedy=1,unknown=2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown scheme must be rejected");
  (match W.mix_of_string "greedy=0,gfg=0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "all-zero mix must be rejected");
  List.iter
    (fun s ->
      match W.skew_of_string s with
      | Ok sk -> check ("skew round-trips: " ^ s) true (W.skew_to_string sk = s)
      | Error e -> Alcotest.fail e)
    [ "uniform"; "zipf:0.9"; "hotspot:0.8/16" ];
  match W.skew_of_string "pareto:3" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown skew must be rejected"

let test_workload_skew () =
  let freq n (w : W.t) =
    let f = Array.make n 0 in
    Array.iter (fun u -> f.(u) <- f.(u) + 1) w.W.src;
    Array.iter (fun u -> f.(u) <- f.(u) + 1) w.W.dst;
    f
  in
  let zipf =
    freq 100 (W.generate ~seed:8L ~n:100 ~count:4000 ~skew:(W.Zipf 1.2) ())
  in
  check "zipf: low ids hot" true (zipf.(0) > zipf.(50) && zipf.(0) > zipf.(99));
  let hot =
    freq 100
      (W.generate ~seed:8L ~n:100 ~count:1000
         ~skew:(W.Hotspot { nodes = 1; frac = 1. })
         ())
  in
  let nonzero = Array.fold_left (fun a f -> if f > 0 then a + 1 else a) 0 hot in
  Alcotest.(check int) "hotspot frac=1, one node takes all" 1 nonzero

(* ---------------- engine ---------------- *)

let small_mix = { W.default_mix with W.stretch = 0.01 }

let serve_jsonl (w : W.t) r =
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  E.write_jsonl fmt w r;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_engine_jobs_identical () =
  let pts = instance 92L 300 40. in
  let store = Serve.Store.create (snapshot_of pts 40.) in
  let w =
    W.generate ~seed:17L ~n:(Array.length pts) ~count:3000 ~mix:small_mix
      ~skew:(W.Hotspot { nodes = 8; frac = 0.4 })
      ()
  in
  let run jobs = E.run ~jobs ~batch:256 ~latency:false ~store w in
  let r1 = run 1 and r2 = run 2 and r4 = run 4 in
  check "hops identical 1/2" true (r1.E.hops = r2.E.hops);
  check "hops identical 1/4" true (r1.E.hops = r4.E.hops);
  check "epochs identical" true
    (r1.E.epoch = r2.E.epoch && r1.E.epoch = r4.E.epoch);
  check "stretch identical (NaN-aware)" true
    (compare r1.E.stretch r2.E.stretch = 0
    && compare r1.E.stretch r4.E.stretch = 0);
  check "drop counts identical" true
    (r1.E.drops = r2.E.drops && r1.E.drops = r4.E.drops);
  (* and the result logs are byte-identical *)
  let l1 = serve_jsonl w r1 in
  Alcotest.(check string) "jsonl identical 1/2" l1 (serve_jsonl w r2);
  Alcotest.(check string) "jsonl identical 1/4" l1 (serve_jsonl w r4);
  (* some queries were actually served *)
  let delivered =
    Array.fold_left (fun a h -> if h >= 0 then a + 1 else a) 0 r1.E.hops
  in
  check "some delivered" true (delivered > 0)

let test_engine_churn_epochs () =
  let pts = instance 93L 200 50. in
  let store = Serve.Store.create (snapshot_of pts 50.) in
  let w = W.generate ~seed:18L ~n:(Array.length pts) ~count:2000 () in
  let jitter = Wireless.Rand.create 930L in
  let moved () =
    Array.map
      (fun (p : P.t) ->
        let j () = Wireless.Rand.float jitter 2. -. 1. in
        P.make (p.P.x +. j ()) (p.P.y +. j ()))
      pts
  in
  (* publish a rebuilt snapshot before every even batch *)
  let on_batch b =
    if b > 0 && b mod 2 = 0 then
      ignore (Serve.Store.publish store (snapshot_of (moved ()) 50.))
  in
  let r = E.run ~jobs:2 ~batch:250 ~latency:false ~on_batch ~store w in
  (* 8 batches, publishes before b = 2, 4, 6 -> epochs 0..3 *)
  Alcotest.(check int) "final epoch" 3 (Serve.Store.id (Serve.Store.pin store));
  Alcotest.(check int) "first query on epoch 0" 0 r.E.epoch.(0);
  Alcotest.(check int) "last query on epoch 3" 3 r.E.epoch.(1999);
  Array.iteri
    (fun q e ->
      if q > 0 && e < r.E.epoch.(q - 1) then
        Alcotest.fail "epoch must be non-decreasing over the query index";
      (* batch boundaries are the only roll points *)
      if q > 0 && q mod 250 <> 0 && e <> r.E.epoch.(q - 1) then
        Alcotest.fail "epoch rolled mid-batch")
    r.E.epoch

(* The acceptance gate for the zero-allocation query path: a
   100k-query run of every kind at jobs = 1 with latency sampling off
   must stay within a few minor words per query — the per-batch
   closures and one-time scratch warmup, nothing per-query.  The mix
   holds GFG's recovery (perimeter hops included) and stretch probes
   (a Dijkstra each). *)
let test_engine_alloc_gate () =
  let pts = instance 94L 400 40. in
  let store = Serve.Store.create (snapshot_of pts 40.) in
  let w =
    W.generate ~seed:19L ~n:(Array.length pts) ~count:100_000
      ~mix:{ W.greedy = 0.4; gfg = 0.3; compass = 0.2; stretch = 0.1 }
      ()
  in
  let r = E.run ~jobs:1 ~batch:8192 ~latency:false ~store w in
  let per_query = r.E.minor_words /. float_of_int r.E.count in
  if per_query >= 4. then
    Alcotest.failf "steady-state allocation: %.2f minor words/query" per_query

let test_engine_stretch_sane () =
  let pts = instance 95L 250 50. in
  let store = Serve.Store.create (snapshot_of pts 50.) in
  let w =
    W.generate ~seed:20L ~n:(Array.length pts) ~count:400
      ~mix:{ W.greedy = 0.; gfg = 0.; compass = 0.; stretch = 1. }
      ()
  in
  let r = E.run ~latency:false ~store w in
  let seen = ref 0 in
  Array.iteri
    (fun q s ->
      if not (Float.is_nan s) then begin
        incr seen;
        if s < 1. -. 1e-9 then
          Alcotest.failf "stretch %.17g < 1 at query %d" s q;
        if r.E.hops.(q) < 0 then
          Alcotest.fail "stretch recorded for a dropped query"
      end)
    r.E.stretch;
  check "stretch probes measured" true (!seen > 0)

let test_engine_open_loop_latency () =
  let pts = instance 96L 150 60. in
  let store = Serve.Store.create (snapshot_of pts 60.) in
  let w =
    W.generate ~seed:21L ~n:(Array.length pts) ~count:300 ~rate:1_000_000. ()
  in
  let r = E.run ~store w in
  Alcotest.(check int) "latency per query" 300 (Array.length r.E.latency_us);
  Array.iter
    (fun l ->
      if Float.is_nan l then Alcotest.fail "open-loop latency must be sampled")
    r.E.latency_us;
  let s = E.summarize r in
  check "p50 <= p99 <= p999" true
    (s.E.s_lat_p50_us <= s.E.s_lat_p99_us
    && s.E.s_lat_p99_us <= s.E.s_lat_p999_us);
  check "throughput positive" true (s.E.s_qps > 0.);
  (* latency off leaves no array behind *)
  let r' = E.run ~latency:false ~store (W.generate ~seed:21L ~n:10 ~count:5 ()) in
  check "no latency array when off" true (r'.E.latency_us = [||])

let test_engine_empty_workload () =
  let pts = instance 97L 60 60. in
  let store = Serve.Store.create (snapshot_of pts 60.) in
  let r = E.run ~store (W.generate ~seed:1L ~n:60 ~count:0 ()) in
  Alcotest.(check int) "no queries" 0 r.E.count;
  let s = E.summarize r in
  Alcotest.(check int) "nothing delivered" 0 s.E.s_delivered

(* [summarize] reads exact quantiles of the result arrays: on a served
   n = 2000 workload at R = 25, every percentile equals a sort over the
   arrays (a streaming estimate read this hop p50 as 12.002). *)
let test_summarize_exact () =
  let n = 2000 and radius = 25. in
  let pts, _ =
    Wireless.Deploy.connected_uniform (Wireless.Rand.create 1L) ~n
      ~side:(10. *. sqrt (float_of_int n)) ~radius ~max_attempts:200
  in
  let store = Serve.Store.create (snapshot_of pts radius) in
  let w = W.generate ~seed:101L ~n ~count:20_000 () in
  let r = E.run ~batch:2048 ~store w in
  let s = E.summarize r in
  let hops =
    Array.map (fun h -> if h >= 0 then float_of_int h else nan) r.E.hops
  in
  let exact what xs q got =
    Alcotest.(check (float 0.)) what (Test_obs.quantile_oracle xs q) got
  in
  exact "hop p50" hops 0.5 s.E.s_hop_p50;
  exact "hop p99" hops 0.99 s.E.s_hop_p99;
  exact "stretch p50" r.E.stretch 0.5 s.E.s_stretch_p50;
  exact "stretch max" r.E.stretch 1. s.E.s_stretch_max;
  exact "latency p50" r.E.latency_us 0.5 s.E.s_lat_p50_us;
  exact "latency p99" r.E.latency_us 0.99 s.E.s_lat_p99_us;
  exact "latency p999" r.E.latency_us 0.999 s.E.s_lat_p999_us

(* ---------------- the served route ---------------- *)

(* GFG's delivery guarantee on the exact epoch the engine serves: on
   connected deployments at the density the benchmarks use (R = 25,
   side 10 sqrt n), every gfg and stretch query the engine answers is
   delivered, identically at jobs 1 and 2.  The same queries through
   the kernel on the pinned snapshot walk UDG edges from src to dst
   with the engine's hop count, and the list wrapper agrees.  No hop
   bound is asserted: GFG has no constant hop-stretch guarantee. *)
let test_served_epoch_delivers () =
  List.iter
    (fun n ->
      for seed = 1 to 5 do
        let radius = 25. in
        let side = 10. *. sqrt (float_of_int n) in
        let pts, _ =
          Wireless.Deploy.connected_uniform
            (Wireless.Rand.create (Int64.of_int seed))
            ~n ~side ~radius ~max_attempts:200
        in
        let store = Serve.Store.create (snapshot_of pts radius) in
        let w =
          W.generate ~seed:(Int64.of_int (100 + seed)) ~n ~count:600
            ~mix:{ W.greedy = 0.; gfg = 0.9; compass = 0.; stretch = 0.1 }
            ~skew:(W.Hotspot { nodes = 16; frac = 0.3 })
            ()
        in
        let r1 = E.run ~jobs:1 ~batch:128 ~latency:false ~store w in
        let r2 = E.run ~jobs:2 ~batch:128 ~latency:false ~store w in
        let tag = Printf.sprintf "n %d seed %d" n seed in
        check (tag ^ ": hops identical at jobs 1 and 2") true
          (r1.E.hops = r2.E.hops);
        let snap = Serve.Store.snapshot (Serve.Store.pin store) in
        let sc = Core.Routing.Scratch.create ~n () in
        for q = 0 to w.W.count - 1 do
          let src = w.W.src.(q) and dst = w.W.dst.(q) in
          let h = Core.Routing.hierarchical_into sc snap ~src ~dst in
          if r1.E.hops.(q) < 0 then
            Alcotest.failf "%s: %s query %d -> %d dropped (%s)" tag
              (W.op_name w.W.kind.(q)) src dst
              Core.Routing.drop_reasons.(Core.Routing.Scratch.drop sc);
          if h <> r1.E.hops.(q) then
            Alcotest.failf "%s: kernel %d hops, engine %d" tag h r1.E.hops.(q);
          let p = Core.Routing.Scratch.path sc in
          if p.(0) <> src || p.(h) <> dst then
            Alcotest.failf "%s: path runs %d -> %d, query %d -> %d" tag p.(0)
              p.(h) src dst;
          for i = 0 to h - 1 do
            if not (Netgraph.Csr.mem_edge snap.Core.Shard.udg p.(i) p.(i + 1))
            then
              Alcotest.failf "%s: hop %d -> %d is no UDG edge" tag p.(i)
                p.(i + 1)
          done;
          match Core.Routing.hierarchical snap ~src ~dst with
          | Some l when List.length l = h + 1 -> ()
          | _ -> Alcotest.failf "%s: list wrapper disagrees on %d -> %d" tag src dst
        done
      done)
    [ 200; 2000; 20_000 ]

(* ---------------- result log ---------------- *)

let test_jsonl_roundtrip () =
  let pts = instance 98L 200 50. in
  let store = Serve.Store.create (snapshot_of pts 50.) in
  let w =
    W.generate ~seed:23L ~n:(Array.length pts) ~count:600 ~mix:small_mix ()
  in
  let r = E.run ~latency:false ~store w in
  let rows = E.read_jsonl (serve_jsonl w r) in
  Alcotest.(check int) "row per query" 600 (List.length rows);
  List.iteri
    (fun i (row : E.row) ->
      Alcotest.(check int) "q in file order" i row.E.r_q;
      Alcotest.(check int) "hops" r.E.hops.(i) row.E.r_hops;
      Alcotest.(check int) "epoch" r.E.epoch.(i) row.E.r_epoch;
      Alcotest.(check int) "src" w.W.src.(i) row.E.r_src;
      Alcotest.(check int) "dst" w.W.dst.(i) row.E.r_dst;
      Alcotest.(check string) "op" (W.op_name w.W.kind.(i)) row.E.r_op;
      if w.W.kind.(i) = W.k_stretch then
        check "stretch round-trips (NaN-aware)" true
          (Float.equal row.E.r_stretch r.E.stretch.(i))
      else check "no stretch field" true (Float.is_nan row.E.r_stretch))
    rows;
  match E.read_jsonl "{\"kind\":\"serve\",\"q\":banana}" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed line must raise"

let suites =
  [
    ( "serve",
      [
        Alcotest.test_case "store epochs: publish and pin" `Quick
          test_store_epochs;
        Alcotest.test_case "workload determinism" `Quick
          test_workload_determinism;
        Alcotest.test_case "workload flag spellings" `Quick
          test_workload_spellings;
        Alcotest.test_case "workload skew shapes" `Quick test_workload_skew;
        Alcotest.test_case "engine: jobs 1/2/4 bit-identical" `Slow
          test_engine_jobs_identical;
        Alcotest.test_case "engine: churn rolls epochs at batches" `Slow
          test_engine_churn_epochs;
        Alcotest.test_case "engine: zero-alloc steady state" `Slow
          test_engine_alloc_gate;
        Alcotest.test_case "engine: stretch >= 1" `Quick
          test_engine_stretch_sane;
        Alcotest.test_case "engine: open-loop latency" `Quick
          test_engine_open_loop_latency;
        Alcotest.test_case "engine: empty workload" `Quick
          test_engine_empty_workload;
        Alcotest.test_case "engine: summarize is exact" `Slow
          test_summarize_exact;
        Alcotest.test_case "result log round-trips" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "served epoch delivers every gfg/stretch query"
          `Slow test_served_epoch_delivers;
      ] );
  ]

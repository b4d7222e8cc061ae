(* The trace layer: deterministic merge across worker counts, Chrome
   round-trip, engine send/deliver semantics, profile and folded-stack
   aggregation, the message audit, and the bench regression gate. *)

module T = Obs.Trace
module G = Netgraph.Csr
module E = Distsim.Engine

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* Every test starts from a clean, disarmed tracer and leaves both
   global switches off for the rest of the suite. *)
let isolated f () =
  Obs.reset ();
  Obs.set_enabled false;
  T.stop ();
  Fun.protect
    ~finally:(fun () ->
      T.stop ();
      Obs.set_enabled false;
      Obs.reset ())
    f

let deployment seed n radius =
  let rng = Wireless.Rand.create seed in
  fst
    (Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
       ~max_attempts:2000)

(* ------------------------------------------------------------------ *)
(* Deterministic merge                                                 *)
(* ------------------------------------------------------------------ *)

(* Everything except wall-clock: the stream restricted to this
   projection must be bit-identical for any worker count. *)
let project evs =
  List.map (fun (e : T.event) -> (e.T.task, e.T.phase, e.T.payload)) evs

let trace_metrics pts base jobs =
  T.start ();
  let r =
    Netgraph.Metrics.combined_stretch ~jobs ~beta:2. ~base pts
      [ ("sub", base) ]
  in
  T.stop ();
  ignore r;
  let evs = T.events () in
  checki "nothing dropped" 0 (T.dropped ());
  project evs

let test_merge_invariant_under_jobs () =
  Obs.set_enabled true;
  let pts = deployment 2002L 60 60. in
  let base = Wireless.Udg.build pts ~radius:60. in
  let t1 = trace_metrics pts base 1 in
  let t2 = trace_metrics pts base 2 in
  let t4 = trace_metrics pts base 4 in
  check "trace has events" true (t1 <> []);
  check "jobs=2 replays jobs=1 exactly" true (t2 = t1);
  check "jobs=4 replays jobs=1 exactly" true (t4 = t1)

let test_pool_job_brackets () =
  Obs.set_enabled true;
  let pts = deployment 7L 40 60. in
  let base = Wireless.Udg.build pts ~radius:60. in
  T.start ();
  ignore (Netgraph.Metrics.combined_stretch ~jobs:3 ~base pts [ ("s", base) ]);
  T.stop ();
  let evs = T.events () in
  let depth = ref 0 and min_depth = ref 0 and jobs = ref 0 in
  List.iter
    (fun (e : T.event) ->
      match e.T.payload with
      | T.Span_begin "pool.job" ->
        incr jobs;
        incr depth
      | T.Span_end "pool.job" ->
        decr depth;
        if !depth < !min_depth then min_depth := !depth
      | _ -> ())
    evs;
    check "at least one pool job traced" true (!jobs > 0);
    checki "job brackets balance" 0 !depth;
    checki "never more ends than begins" 0 !min_depth;
    (* worker events appear only inside a bracket, tagged with a task *)
    let in_job = ref false in
    List.iter
      (fun (e : T.event) ->
        (match e.T.payload with
        | T.Span_begin "pool.job" -> in_job := true
        | T.Span_end "pool.job" -> in_job := false
        | _ -> ());
        if e.T.task >= 0 then check "task context only inside jobs" true !in_job)
      evs

(* ------------------------------------------------------------------ *)
(* Chrome round-trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_chrome_roundtrip () =
  Obs.set_enabled true;
  T.start ();
  let c = Obs.counter "trace.rt" in
  Obs.span "rt.outer" (fun () ->
      Obs.incr c;
      Obs.add c 3;
      T.send ~round:3 ~time:0.5 ~kind:"Hello, \"world\"" ~src:1 ~dst:(-1)
        ~lam:1 ~sseq:0;
      T.deliver ~round:4 ~time:1.0625 ~kind:"Hello, \"world\"" ~src:1 ~dst:2
        ~lam:2 ~sseq:0 ~dseq:0;
      Obs.span "rt.inner" (fun () -> Obs.incr c));
  T.stop ();
  let evs = T.events () in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  T.write_chrome fmt evs;
  Format.pp_print_flush fmt ();
  let parsed = T.read_chrome (Buffer.contents buf) in
  check "chrome JSON round-trips exactly" true (parsed = evs);
  (* the two incr's around the send/deliver pair cannot coalesce *)
  let counts =
    List.filter
      (fun (e : T.event) ->
        match e.T.payload with T.Count _ -> true | _ -> false)
      evs
  in
  checki "interleaved counts stay separate" 2 (List.length counts)

let test_count_coalescing () =
  Obs.set_enabled true;
  T.start ();
  let c = Obs.counter "trace.coalesce" in
  for _ = 1 to 1000 do
    Obs.incr c
  done;
  T.stop ();
  match project (T.events ()) with
  | [ (_, _, T.Count { name = "trace.coalesce"; delta = 1000 }) ] -> ()
  | evs ->
    Alcotest.failf "expected one coalesced count event, got %d"
      (List.length evs)

(* ------------------------------------------------------------------ *)
(* Engine audit semantics                                              *)
(* ------------------------------------------------------------------ *)

let test_engine_send_deliver () =
  Obs.set_enabled true;
  let g = G.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let proto =
    {
      E.init = (fun _ _ -> ());
      E.on_round =
        (fun ctx st _ ->
          if ctx.E.round = 0 then ctx.E.broadcast ctx.E.me;
          st);
    }
  in
  T.start ();
  let _, stats =
    E.run ~classify:(fun _ -> "id") g proto
  in
  T.stop ();
  let evs = T.events () in
  let sends, delivers =
    List.partition
      (fun (e : T.event) ->
        match e.T.payload with T.Send _ -> true | _ -> false)
      (List.filter
         (fun (e : T.event) ->
           match e.T.payload with
           | T.Send _ | T.Deliver _ -> true
           | _ -> false)
         evs)
  in
  checki "one send event per transmission" (E.total_sent stats)
    (List.length sends);
  (* path graph 0-1-2-3: degrees 1,2,2,1 = 6 point-to-point deliveries *)
  checki "one deliver event per reception" 6 (List.length delivers);
  List.iter
    (fun (e : T.event) ->
      match e.T.payload with
      | T.Send { round; _ } -> checki "sends happen in round 0" 0 round
      | T.Deliver { round; src; dst; _ } ->
        checki "delivery lands one round after the send" 1 round;
        check "src/dst are an edge" true (G.mem_edge g src dst)
      | _ -> ())
    (sends @ delivers)

let test_async_by_kind () =
  let pts = deployment 11L 30 60. in
  let udg = Wireless.Udg.build pts ~radius:60. in
  let delay ~from:_ ~dst:_ ~seq = 1. +. (float_of_int (seq mod 7) /. 10.) in
  let roles, stats = Core.Async_cluster.run ~delay udg in
  let doms =
    Array.fold_left
      (fun acc r -> if r = Core.Mis.Dominator then acc + 1 else acc)
      0 roles
  in
  let kind k =
    Option.value ~default:0 (List.assoc_opt k stats.Distsim.Async_engine.by_kind)
  in
  checki "one IamDominator per dominator" doms (kind "IamDominator");
  checki "one IamDominatee per dominatee" (Array.length roles - doms)
    (kind "IamDominatee");
  checki "kinds account for every transmission"
    (Array.fold_left ( + ) 0 stats.Distsim.Async_engine.sent)
    (kind "IamDominator" + kind "IamDominatee")

let test_message_audit () =
  Obs.set_enabled true;
  let pts = deployment 2002L 40 60. in
  T.start ();
  let r = Core.Protocol.run pts ~radius:60. in
  T.stop ();
  let evs = T.events () in
  let audit = T.message_audit evs in
  (* every phase's traced sends equal the engine's own counters *)
  let traced phase =
    List.fold_left
      (fun acc (row : T.audit_row) ->
        if row.T.a_phase = phase then acc + row.T.a_sends else acc)
      0 audit
  in
  List.iter2
    (fun name stats ->
      checki
        ("traced sends = engine total for " ^ name)
        (E.total_sent stats)
        (traced ("protocol/" ^ name)))
    Core.Protocol.phases
    [
      r.Core.Protocol.stats_cluster; r.Core.Protocol.stats_connector;
      r.Core.Protocol.stats_status; r.Core.Protocol.stats_ldel;
    ];
  (* clustering audits exactly the paper's kinds *)
  let cluster_kinds =
    List.filter_map
      (fun (row : T.audit_row) ->
        if row.T.a_phase = "protocol/cluster" then Some row.T.a_kind else None)
      audit
  in
  check "clustering kinds" true
    (List.sort compare cluster_kinds
    = [ "Hello"; "IamDominatee"; "IamDominator" ])

let test_slope_fit () =
  (* exact power laws recover their exponent *)
  checkf "linear" 1.
    (T.fit_loglog_slope [ (100., 300.); (200., 600.); (400., 1200.) ]);
  checkf "quadratic" 2.
    (T.fit_loglog_slope [ (10., 500.); (20., 2000.); (40., 8000.) ]);
  check "degenerate input is nan" true
    (Float.is_nan (T.fit_loglog_slope [ (10., 5.) ]))

(* ------------------------------------------------------------------ *)
(* Profile and folded stacks                                           *)
(* ------------------------------------------------------------------ *)

let test_profile_nesting () =
  Obs.set_enabled true;
  T.start ();
  Obs.span "prof.a" (fun () ->
      Obs.span "prof.b" (fun () -> Obs.span "prof.b" (fun () -> ())));
  T.stop ();
  let rows = T.profile (T.events ()) in
  let row path =
    match List.find_opt (fun (r : T.profile_row) -> r.T.p_path = path) rows with
    | Some r -> r
    | None -> Alcotest.failf "missing profile row %s" path
  in
  let a = row "prof.a" and b = row "prof.a/prof.b" in
  let bb = row "prof.a/prof.b/prof.b" in
  checki "outer called once" 1 a.T.p_calls;
  checki "inner twice (recursively)" 1 b.T.p_calls;
  checki "recursive leaf" 1 bb.T.p_calls;
  check "total includes children" true (a.T.p_total >= b.T.p_total);
  checkf "outer self = total - children" (a.T.p_total -. b.T.p_total)
    a.T.p_self;
  checkf "leaf self = leaf total" bb.T.p_total bb.T.p_self

let test_folded_stacks () =
  Obs.set_enabled true;
  T.start ();
  Obs.span "fold.a" (fun () -> Obs.span "fold.b" (fun () -> ()));
  T.stop ();
  let buf = Buffer.create 256 in
  let fmt = Format.formatter_of_buffer buf in
  T.write_folded fmt (T.events ());
  Format.pp_print_flush fmt ();
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  checki "one line per span path" 2 (List.length lines);
  check "nesting uses semicolons" true
    (List.exists
       (fun l -> String.length l > 13 && String.sub l 0 13 = "fold.a;fold.b")
       lines)

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

let gate_snapshot () =
  Obs.set_enabled true;
  let c = Obs.counter "gate.work" in
  Obs.add c 42;
  let d = Obs.dist "gate.sizes" in
  List.iter (fun x -> Obs.observe d x) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Obs.span "gate.stage" (fun () -> ());
  Obs.Snapshot.capture ()

let test_compare_against_identical () =
  let snap = gate_snapshot () in
  check "identical snapshot passes" true
    (Obs.Snapshot.compare_against ~threshold:0.5 ~reference:snap snap = [])

let test_compare_against_regressions () =
  (* pin the span timing so the test is deterministic: the "current"
     run took 1s where the committed baseline took 0.5s — a 2x
     slowdown must fail a +50% gate, naming the span *)
  let with_seconds secs s =
    {
      s with
      Obs.Snapshot.spans =
        List.map
          (fun (sp : Obs.Snapshot.span_stats) ->
            { sp with Obs.Snapshot.seconds = secs })
          s.Obs.Snapshot.spans;
    }
  in
  let snap = with_seconds 1.0 (gate_snapshot ()) in
  let halved = with_seconds 0.5 snap in
  (match Obs.Snapshot.compare_against ~threshold:0.5 ~reference:halved snap with
  | [] -> Alcotest.fail "2x slowdown passed a +50% gate"
  | vs ->
    check "violation names the span" true
      (List.exists
         (fun (m : Obs.Snapshot.mismatch) ->
           m.Obs.Snapshot.m_kind = "span.seconds"
           && m.Obs.Snapshot.m_name = "gate.stage")
         vs));
  (* counter drift is a hard failure at any threshold *)
  let drifted =
    {
      snap with
      Obs.Snapshot.counters =
        List.map
          (fun (n, v) -> if n = "gate.work" then (n, v + 1) else (n, v))
          snap.Obs.Snapshot.counters;
    }
  in
  check "counter drift fails" true
    (Obs.Snapshot.compare_against ~threshold:10. ~reference:drifted snap <> []);
  (* spans and dists only present in the current run are ignored; a
     counter only present in it is reported unrecorded *)
  let trimmed = { snap with Obs.Snapshot.spans = []; dists = [] } in
  check "reference without the span and dist still passes" true
    (Obs.Snapshot.compare_against ~threshold:0.5 ~reference:trimmed snap = []);
  let uncounted = { snap with Obs.Snapshot.counters = [] } in
  check "reference without the counter fails" true
    (Obs.Snapshot.compare_against ~threshold:0.5 ~reference:uncounted snap <> [])

let test_dist_moments () =
  let snap = gate_snapshot () in
  let stats = List.assoc "gate.sizes" snap.Obs.Snapshot.dists in
  checki "count" 8 stats.Obs.Snapshot.count;
  checkf "mean" 5. (Obs.Snapshot.dist_mean stats);
  checkf "population stddev" 2. (Obs.Snapshot.dist_stddev stats);
  (* the moments survive both sink round-trips *)
  let via render parse =
    let buf = Buffer.create 256 in
    let fmt = Format.formatter_of_buffer buf in
    render fmt snap;
    Format.pp_print_flush fmt ();
    List.assoc "gate.sizes" (parse (Buffer.contents buf)).Obs.Snapshot.dists
  in
  let js = via (fun fmt s -> Obs.json fmt s) Obs.Snapshot.of_json_lines in
  let cs = via (fun fmt s -> Obs.csv fmt s) Obs.Snapshot.of_csv in
  check "json keeps sumsq" true (js = stats);
  check "csv keeps sumsq" true (cs = stats)

(* ------------------------------------------------------------------ *)
(* Causal analysis                                                     *)
(* ------------------------------------------------------------------ *)

module C = Obs.Causal

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Token relay over a path graph: node 0 fires, each node forwards on
   hearing its predecessor — O(n) messages, causal depth n. *)
let relay_protocol =
  {
    E.init = (fun i _ -> i = 0);
    E.on_round =
      (fun ctx fired inbox ->
        if ctx.E.round = 0 && ctx.E.me = 0 then begin
          ctx.E.broadcast 0;
          true
        end
        else if
          (not fired)
          && E.fold_inbox
               (fun heard _ _ (token : int) -> heard || token = ctx.E.me - 1)
               false inbox
        then begin
          ctx.E.broadcast ctx.E.me;
          true
        end
        else fired);
  }

let path_graph n =
  (G.of_edges n (List.init (n - 1) (fun i -> (i, i + 1))))

let relay_events n =
  T.start ();
  Obs.span "causal.relay" (fun () ->
      ignore (E.run ~classify:(fun _ -> "Token") (path_graph n) relay_protocol));
  T.stop ();
  T.events ()

let test_causal_relay_depth () =
  Obs.set_enabled true;
  let r = C.analyze (relay_events 5) in
  checki "one phase" 1 (List.length r.C.r_phases);
  let ph = List.hd r.C.r_phases in
  check "phase is the span path" true (ph.C.ph_phase = "causal.relay");
  (* 5 sends, one deliver per (sender, neighbor) on the path: 8 *)
  checki "events" 13 ph.C.ph_events;
  checki "token chain has depth n" 5 ph.C.ph_depth;
  checki "rounds spanned by the path" 6 ph.C.ph_rounds;
  checki "single phase = end to end" ph.C.ph_depth r.C.r_depth;
  check "no violations" true (r.C.r_violations = []);
  (* the critical path walks the whole chain: n sends, n delivers *)
  checki "path length" 10 (List.length ph.C.ph_path);
  check "path roots at depth 0" true
    (match ph.C.ph_path with s :: _ -> s.C.s_depth = 0 | [] -> false);
  check "path depths never decrease" true
    (let rec mono = function
       | a :: (b :: _ as rest) -> a.C.s_depth <= b.C.s_depth && mono rest
       | _ -> true
     in
     mono ph.C.ph_path);
  (* width buckets cover every event exactly once *)
  checki "width sums to events" ph.C.ph_events
    (List.fold_left (fun a (_, w) -> a + w) 0 ph.C.ph_width);
  checki "width has depth+1 buckets" (ph.C.ph_depth + 1)
    (List.length ph.C.ph_width);
  check "attribution sorted most-loaded first" true
    (match ph.C.ph_attribution with
    | (_, c1) :: (_, c2) :: _ -> c1 >= c2
    | [ _ ] -> true
    | [] -> false)

let test_causal_flood_depth () =
  Obs.set_enabled true;
  T.start ();
  let proto =
    {
      E.init = (fun _ _ -> ());
      E.on_round =
        (fun ctx st _ ->
          if ctx.E.round = 0 then ctx.E.broadcast ctx.E.me;
          st);
    }
  in
  Obs.span "causal.flood" (fun () ->
      ignore (E.run ~classify:(fun _ -> "id") (path_graph 4) proto));
  T.stop ();
  let r = C.analyze (T.events ()) in
  let ph = List.hd r.C.r_phases in
  (* one broadcast round: every chain is send -> deliver *)
  checki "flood depth is one hop" 1 ph.C.ph_depth;
  checki "rounds" 2 ph.C.ph_rounds;
  check "no violations" true (r.C.r_violations = [])

(* The analyzer only reads the merged stream, so its output is
   bit-identical whatever worker count produced the interleaved pool
   events around the protocol's. *)
let causal_with_jobs jobs =
  let pts = deployment 2002L 40 60. in
  let base = Wireless.Udg.build pts ~radius:60. in
  T.start ();
  let r = Core.Protocol.run pts ~radius:60. in
  ignore r;
  ignore
    (Netgraph.Metrics.combined_stretch ~jobs ~beta:2. ~base pts
       [ ("sub", base) ]);
  T.stop ();
  let evs = T.events () in
  checki "nothing dropped" 0 (T.dropped ());
  C.analyze evs

let test_causal_jobs_identity () =
  Obs.set_enabled true;
  let r1 = causal_with_jobs 1 in
  let r2 = causal_with_jobs 2 in
  let r4 = causal_with_jobs 4 in
  check "protocol phases analyzed" true (List.length r1.C.r_phases >= 4);
  check "depth positive" true (r1.C.r_depth > 0);
  check "jobs=2 report is bit-identical" true (r2 = r1);
  check "jobs=4 report is bit-identical" true (r4 = r1)

let test_causal_violations () =
  Obs.set_enabled true;
  T.start ();
  (* raw hooks on purpose: forge streams the stamping helper cannot
     produce *)
  Obs.span "causal.bad" (fun () ->
      T.send ~round:0 ~time:0. ~kind:"k" ~src:0 ~dst:(-1) ~lam:5 ~sseq:0;
      (* node 0 stamps again without advancing past 5 *)
      T.send ~round:1 ~time:0. ~kind:"k" ~src:0 ~dst:(-1) ~lam:3 ~sseq:1;
      (* no send (src 2, sseq 9) precedes this *)
      T.deliver ~round:1 ~time:0. ~kind:"k" ~src:2 ~dst:1 ~lam:1 ~sseq:9
        ~dseq:0;
      (* matched send has lam 5; a deliver stamp must dominate it *)
      T.deliver ~round:1 ~time:0. ~kind:"k" ~src:0 ~dst:3 ~lam:4 ~sseq:0
        ~dseq:0);
  T.stop ();
  let r = C.analyze (T.events ()) in
  let orphans, regressions =
    List.partition
      (function C.Orphan_deliver _ -> true | _ -> false)
      r.C.r_violations
  in
  check "orphan deliver detected" true
    (match orphans with
    | [ C.Orphan_deliver { src = 2; dst = 1; sseq = 9; _ } ] -> true
    | _ -> false);
  checki "both regressions detected" 2 (List.length regressions);
  check "regressions carry the stamps" true
    (List.for_all
       (function
         | C.Clock_regression { lam; prev; _ } -> lam <= prev
         | _ -> false)
       regressions);
  (* diagnostics render *)
  List.iter
    (fun v ->
      check "violation pretty-prints" true
        (String.length (Format.asprintf "%a" C.pp_violation v) > 10))
    r.C.r_violations

let test_causal_dot () =
  Obs.set_enabled true;
  let evs = relay_events 4 in
  let buf = Buffer.create 4096 in
  let fmt = Format.formatter_of_buffer buf in
  C.write_dot fmt evs;
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buf in
  let count c =
    String.fold_left (fun a ch -> if ch = c then a + 1 else a) 0 text
  in
  check "digraph prefix" true
    (String.length text > 7 && String.sub text 0 7 = "digraph");
  check "braces balance" true (count '{' = count '}' && count '{' >= 2);
  check "has message edges" true (contains text "style=solid");
  check "has program-order edges" true (contains text "style=dashed");
  check "critical path highlighted" true (contains text "color=red");
  (* one DOT node per protocol event: 4 sends + 6 deliveries *)
  let occurrences needle =
    let nn = String.length needle in
    let rec go i acc =
      if i + nn > String.length text then acc
      else if String.sub text i nn = needle then go (i + nn) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  checki "one node per protocol event" 10 (occurrences "[label=\"")

let test_chrome_flows_roundtrip () =
  Obs.set_enabled true;
  let evs = relay_events 5 in
  let r = C.analyze evs in
  let flows = C.flows evs r in
  check "relay path yields flow arrows" true (List.length flows >= 4);
  List.iter
    (fun ((s : T.event), (d : T.event)) ->
      check "flow source is a send" true
        (match s.T.payload with T.Send _ -> true | _ -> false);
      check "flow target is a deliver" true
        (match d.T.payload with T.Deliver _ -> true | _ -> false))
    flows;
  let buf = Buffer.create 8192 in
  let fmt = Format.formatter_of_buffer buf in
  T.write_chrome ~flows fmt evs;
  Format.pp_print_flush fmt ();
  let text = Buffer.contents buf in
  check "flow-start records emitted" true
    (contains text "\"cat\":\"flow\",\"ph\":\"s\"");
  check "flow-finish records emitted" true
    (contains text "\"cat\":\"flow\",\"ph\":\"f\"");
  (* arrows are presentation-only: the read-back is still lossless *)
  check "flow arrows don't disturb the round-trip" true
    (T.read_chrome text = evs)

let test_async_classify_tracing () =
  Obs.set_enabled true;
  let pts = deployment 11L 30 60. in
  let udg = Wireless.Udg.build pts ~radius:60. in
  let delay ~from:_ ~dst:_ ~seq = 1. +. (float_of_int (seq mod 7) /. 10.) in
  T.start ();
  let _, stats = Core.Async_cluster.run ~delay udg in
  T.stop ();
  let evs = T.events () in
  let send_count k =
    List.fold_left
      (fun acc (e : T.event) ->
        match e.T.payload with
        | T.Send { kind; _ } when kind = k -> acc + 1
        | _ -> acc)
      0 evs
  in
  let deliver_count k =
    List.fold_left
      (fun acc (e : T.event) ->
        match e.T.payload with
        | T.Deliver { kind; _ } when kind = k -> acc + 1
        | _ -> acc)
      0 evs
  in
  (* each send of kind k from u fans out to deg(u) deliveries *)
  let expected_deliveries k =
    List.fold_left
      (fun acc (e : T.event) ->
        match e.T.payload with
        | T.Send { kind; src; _ } when kind = k ->
          acc + Netgraph.Csr.degree udg src
        | _ -> acc)
      0 evs
  in
  let by_kind = stats.Distsim.Async_engine.by_kind in
  check "both kinds classified" true
    (List.map fst by_kind = [ "IamDominatee"; "IamDominator" ]);
  List.iter
    (fun (k, c) ->
      checki ("traced sends match the counter for " ^ k) c (send_count k);
      checki
        ("traced deliveries fan out per degree for " ^ k)
        (expected_deliveries k) (deliver_count k))
    by_kind;
  checki "every delivery traced with its kind"
    stats.Distsim.Async_engine.deliveries
    (List.fold_left (fun a (k, _) -> a + deliver_count k) 0 by_kind);
  (* async stamping is causally coherent too *)
  check "no violations in the async stream" true
    ((C.analyze evs).C.r_violations = [])

let suites =
  [
    ( "trace",
      [
        Alcotest.test_case "merge invariant under jobs" `Quick
          (isolated test_merge_invariant_under_jobs);
        Alcotest.test_case "pool job brackets" `Quick
          (isolated test_pool_job_brackets);
        Alcotest.test_case "chrome round-trip" `Quick
          (isolated test_chrome_roundtrip);
        Alcotest.test_case "count coalescing" `Quick
          (isolated test_count_coalescing);
        Alcotest.test_case "engine send/deliver" `Quick
          (isolated test_engine_send_deliver);
        Alcotest.test_case "async per-kind stats" `Quick
          (isolated test_async_by_kind);
        Alcotest.test_case "message audit matches engine" `Quick
          (isolated test_message_audit);
        Alcotest.test_case "log-log slope fit" `Quick
          (isolated test_slope_fit);
        Alcotest.test_case "profile nesting" `Quick
          (isolated test_profile_nesting);
        Alcotest.test_case "folded stacks" `Quick
          (isolated test_folded_stacks);
        Alcotest.test_case "compare_against identical" `Quick
          (isolated test_compare_against_identical);
        Alcotest.test_case "compare_against regressions" `Quick
          (isolated test_compare_against_regressions);
        Alcotest.test_case "dist mean/stddev" `Quick
          (isolated test_dist_moments);
      ] );
    ( "causal",
      [
        Alcotest.test_case "relay critical path" `Quick
          (isolated test_causal_relay_depth);
        Alcotest.test_case "flood depth" `Quick
          (isolated test_causal_flood_depth);
        Alcotest.test_case "bit-identical across jobs" `Quick
          (isolated test_causal_jobs_identity);
        Alcotest.test_case "violation diagnostics" `Quick
          (isolated test_causal_violations);
        Alcotest.test_case "dot dump" `Quick (isolated test_causal_dot);
        Alcotest.test_case "chrome flow arrows" `Quick
          (isolated test_chrome_flows_roundtrip);
        Alcotest.test_case "async classify under tracing" `Quick
          (isolated test_async_classify_tracing);
      ] );
  ]

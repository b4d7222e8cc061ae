(* Telemetry recorder semantics (push/pull, exports, sparklines) and
   the invariant health monitor: a sound backbone passes every probe,
   tightened thresholds surface violations, and violations fire typed
   trace alerts that survive the Chrome round-trip. *)

module T = Obs.Telemetry

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let deployment seed n radius =
  let rng = Wireless.Rand.create seed in
  fst
    (Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
       ~max_attempts:2000)

let render f x =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  f fmt x;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Telemetry                                                           *)
(* ------------------------------------------------------------------ *)

let test_telemetry_pull_probes () =
  let t = T.create () in
  let tick = ref 0. in
  T.register t "tick" (fun () ->
      tick := !tick +. 1.;
      !tick);
  T.register t "const" (fun () -> 7.);
  T.sample t ~round:0;
  T.sample t ~round:1;
  T.sample t ~round:2;
  Alcotest.(check (list int)) "rounds" [ 0; 1; 2 ] (T.rounds t);
  Alcotest.(check (list (pair int (float 0.))))
    "pull series" [ (0, 1.); (1, 2.); (2, 3.) ] (T.series t "tick");
  Alcotest.(check (option (float 0.))) "last" (Some 7.) (T.last t "const");
  Alcotest.(check (list string)) "names sorted" [ "const"; "tick" ] (T.names t)

let test_telemetry_push_and_sketch () =
  let t = T.create () in
  for r = 0 to 99 do
    T.record t ~round:r "v" (float_of_int r)
  done;
  checki "one hundred rounds" 100 (List.length (T.rounds t));
  (match T.sketch t "v" with
  | None -> Alcotest.fail "sketch missing"
  | Some sk ->
    checki "sketch fed" 100 (Obs.Sketch.count sk);
    check "median near 50" true
      (abs_float (Obs.Sketch.quantile sk 0.5 -. 49.5) < 2.));
  check "unknown probe" true (T.series t "nope" = [] && T.sketch t "nope" = None)

let test_telemetry_jsonl_roundtrip () =
  let t = T.create () in
  T.record t ~round:0 "b" 1.5;
  T.record t ~round:0 "a" 0.125;
  T.record t ~round:3 "a" (-7.25);
  T.record t ~round:3 "b" 1e-17;
  let rows = T.read_jsonl (render T.write_jsonl t) in
  Alcotest.(check (list (pair int (list (pair string (float 0.))))))
    "jsonl round-trips, names sorted within a round"
    [ (0, [ ("a", 0.125); ("b", 1.5) ]); (3, [ ("a", -7.25); ("b", 1e-17) ]) ]
    rows

let test_telemetry_csv () =
  let t = T.create () in
  T.record t ~round:0 "b" 2.;
  T.record t ~round:1 "a" 1.;
  T.record t ~round:1 "b" 3.;
  let out = render T.write_csv t in
  let lines =
    String.split_on_char '\n' (String.trim out) |> List.map String.trim
  in
  Alcotest.(check (list string))
    "sorted header, empty cell for the missing value"
    [ "round,a,b"; "0,,2"; "1,1,3" ]
    lines

let test_sparkline () =
  let bars = T.sparkline [ 0.; 1.; 2.; 3. ] in
  (* four glyphs, three bytes each, first lowest and last highest *)
  checki "four glyphs" 12 (String.length bars);
  check "starts low" true (String.sub bars 0 3 = "\xe2\x96\x81");
  check "ends high" true (String.sub bars 9 3 = "\xe2\x96\x88");
  check "empty series" true (T.sparkline [] = "");
  check "nan-only series" true (T.sparkline [ nan; nan ] = "");
  Alcotest.(check string)
    "constant series is mid-height"
    "\xe2\x96\x84\xe2\x96\x84"
    (T.sparkline [ 5.; 5. ])

(* ------------------------------------------------------------------ *)
(* Monitor                                                             *)
(* ------------------------------------------------------------------ *)

let built_backbone () =
  let pts = deployment 2002L 60 60. in
  Core.Backbone.build pts ~radius:60.

let test_monitor_healthy () =
  let bb = built_backbone () in
  let mon = Core.Monitor.create ~stretch_sources:6 ~seed:1L () in
  for r = 1 to 3 do
    let vs = Core.Monitor.observe mon ~round:r bb in
    check "no violations on a sound backbone" true (vs = [])
  done;
  check "healthy" true (Core.Monitor.healthy mon);
  check "no violations accumulated" true (Core.Monitor.violations mon = []);
  let t = Core.Monitor.telemetry mon in
  Alcotest.(check (list int)) "three rounds recorded" [ 1; 2; 3 ] (T.rounds t);
  List.iter
    (fun (probe, _) ->
      checki (probe ^ " recorded every round") 3
        (List.length (T.series t probe)))
    (Core.Monitor.invariants mon);
  check "gauges recorded too" true
    (List.length (T.series t "backbone_nodes") = 3
    && List.length (T.series t "gc_heap_words") = 3);
  (* extra values land under the same round *)
  let _ =
    Core.Monitor.observe mon ~round:4 ~extra:[ ("links_broken", 2.) ] bb
  in
  Alcotest.(check (option (float 0.)))
    "extra recorded" (Some 2.) (T.last t "links_broken")

let test_monitor_violation_injection () =
  let bb = built_backbone () in
  let th = { Core.Monitor.default_thresholds with max_degree = 0. } in
  let mon = Core.Monitor.create ~thresholds:th ~stretch_sources:4 () in
  let vs = Core.Monitor.observe mon ~round:7 bb in
  check "not healthy" true (not (Core.Monitor.healthy mon));
  match
    List.find_opt (fun v -> v.Core.Monitor.v_probe = "deg_max") vs
  with
  | None -> Alcotest.fail "deg_max violation not raised"
  | Some v ->
    checki "round carried" 7 v.Core.Monitor.v_round;
    Alcotest.(check (float 0.)) "limit carried" 0. v.Core.Monitor.v_limit;
    check "value above limit" true (v.Core.Monitor.v_value > 0.);
    check "witness node implicated" true
      (v.Core.Monitor.v_node >= 0
      && v.Core.Monitor.v_node < Array.length bb.Core.Backbone.snap.Core.Shard.points);
    check "also in the accumulated list" true
      (List.mem v (Core.Monitor.violations mon))

let test_monitor_stretch_gate () =
  (* an absurd stretch limit must trip the sampled-stretch probes *)
  let bb = built_backbone () in
  let th =
    { Core.Monitor.default_thresholds with
      max_len_stretch = 0.5; max_hop_stretch = 0.5 }
  in
  let mon = Core.Monitor.create ~thresholds:th ~stretch_sources:4 () in
  let vs = Core.Monitor.observe mon ~round:0 bb in
  let probes = List.map (fun v -> v.Core.Monitor.v_probe) vs in
  check "len gate fired" true (List.mem "len_stretch_max" probes);
  check "hop gate fired" true (List.mem "hop_stretch_max" probes)

let test_monitor_alert_trace () =
  let bb = built_backbone () in
  let th = { Core.Monitor.default_thresholds with max_degree = 0. } in
  let mon = Core.Monitor.create ~thresholds:th ~stretch_sources:4 () in
  Obs.Trace.start ();
  let vs = Core.Monitor.observe mon ~round:5 bb in
  Obs.Trace.stop ();
  check "violation seen" true (vs <> []);
  let events = Obs.Trace.events () in
  let alerts =
    List.filter_map
      (fun e ->
        match e.Obs.Trace.payload with
        | Obs.Trace.Alert { round; probe; value; limit; node } ->
          Some (round, probe, value, limit, node)
        | _ -> None)
      events
  in
  (match
     List.find_opt (fun (r, p, _, _, _) -> r = 5 && p = "deg_max") alerts
   with
  | None -> Alcotest.fail "no deg_max alert event recorded"
  | Some (_, _, value, limit, node) ->
    check "alert payload consistent" true
      (value > limit && node >= 0));
  (* the alert survives the Chrome export round-trip *)
  let parsed =
    Obs.Trace.read_chrome
      (render (fun fmt evs -> Obs.Trace.write_chrome fmt evs) events)
  in
  check "chrome round-trip preserves alerts" true (parsed = events)

(* Edgeless deployments (one node; three nodes 10 apart at R = 1.2):
   the quality table and the monitor's stretch probes see no pair, so
   they report the no-pair value, not an infinite-stretch violation. *)
let test_monitor_edgeless () =
  List.iter
    (fun (name, pts) ->
      let bb = Core.Backbone.build pts ~radius:1.2 in
      let rows = Core.Quality.rows bb in
      check (name ^ ": quality rows") true (rows <> []);
      List.iter
        (fun r ->
          check
            (name ^ ": " ^ r.Core.Quality.name ^ " no-pair stretch")
            true
            (List.for_all
               (fun x -> x = None || x = Some 1.)
               Core.Quality.[ r.len_avg; r.len_max; r.hop_avg; r.hop_max ]))
        rows;
      let mon = Core.Monitor.create ~stretch_sources:4 () in
      for r = 1 to 2 do
        check (name ^ ": no violation") true
          (Core.Monitor.observe mon ~round:r bb = [])
      done;
      check (name ^ ": healthy") true (Core.Monitor.healthy mon))
    [
      ("one node", [| Geometry.Point.make 0. 0. |]);
      ( "three isolated",
        Geometry.Point.
          [| make 0. 0.; make 10. 0.; make 20. 0. |] );
    ]

let suites =
  [
    ( "telemetry",
      [
        Alcotest.test_case "pull probes" `Quick test_telemetry_pull_probes;
        Alcotest.test_case "push + sketch" `Quick
          test_telemetry_push_and_sketch;
        Alcotest.test_case "jsonl round-trip" `Quick
          test_telemetry_jsonl_roundtrip;
        Alcotest.test_case "csv export" `Quick test_telemetry_csv;
        Alcotest.test_case "sparkline" `Quick test_sparkline;
      ] );
    ( "monitor",
      [
        Alcotest.test_case "healthy backbone passes" `Quick
          test_monitor_healthy;
        Alcotest.test_case "violation injection" `Quick
          test_monitor_violation_injection;
        Alcotest.test_case "stretch gates" `Quick test_monitor_stretch_gate;
        Alcotest.test_case "edgeless deployments" `Quick
          test_monitor_edgeless;
        Alcotest.test_case "alerts reach the trace" `Quick
          test_monitor_alert_trace;
      ] );
  ]

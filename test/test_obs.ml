(* The observability layer: counter/span semantics, determinism of the
   work counters for a fixed seed, sink round-trips, and the disabled
   path leaving the registry untouched. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* Every test starts from a clean, disabled registry and must leave
   the global switch off for the rest of the suite. *)
let isolated f () =
  Obs.reset ();
  Obs.set_enabled false;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_enabled false;
      Obs.reset ())
    f

let deployment seed n radius =
  let rng = Wireless.Rand.create seed in
  fst
    (Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
       ~max_attempts:2000)

(* ------------------------------------------------------------------ *)
(* Core semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let c = Obs.counter "test.basics" in
  Obs.incr c;
  checki "disabled incr is a no-op" 0 (Obs.value c);
  Obs.set_enabled true;
  Obs.incr c;
  Obs.add c 41;
  checki "enabled counts" 42 (Obs.value c);
  check "same name, same cell" true (Obs.counter "test.basics" == c);
  Obs.reset ();
  checki "reset zeroes but keeps the handle" 0 (Obs.value c)

let test_disabled_leaves_counters_untouched () =
  (* run a real pipeline with obs off: nothing may move *)
  let pts = deployment 2002L 40 60. in
  let bb = Core.Backbone.build pts ~radius:60. in
  let _ = Core.Protocol.run pts ~radius:60. in
  ignore (Core.Backbone.ldel_full bb);
  let snap = Obs.Snapshot.capture () in
  List.iter
    (fun (name, v) -> checki (name ^ " untouched") 0 v)
    snap.Obs.Snapshot.counters;
  check "no dists" true (snap.Obs.Snapshot.dists = []);
  check "no spans" true (snap.Obs.Snapshot.spans = [])

let test_span_nesting () =
  Obs.set_enabled true;
  let v =
    Obs.span "outer" (fun () ->
        Obs.span "inner" (fun () -> ());
        Obs.span "inner" (fun () -> ());
        7)
  in
  checki "span returns the body's value" 7 v;
  Obs.span "outer" (fun () -> ());
  let snap = Obs.Snapshot.capture () in
  let paths =
    List.map
      (fun s -> (s.Obs.Snapshot.path, s.Obs.Snapshot.calls))
      snap.Obs.Snapshot.spans
  in
  Alcotest.(check (list (pair string int)))
    "paths nest and accumulate"
    [ ("outer", 2); ("outer/inner", 2) ]
    paths

let test_span_unwinds_on_exception () =
  Obs.set_enabled true;
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Obs.span "after" (fun () -> ());
  let snap = Obs.Snapshot.capture () in
  let paths = List.map (fun s -> s.Obs.Snapshot.path) snap.Obs.Snapshot.spans in
  Alcotest.(check (list string))
    "stack popped despite the raise (snapshot sorts by path)"
    [ "after"; "boom" ] paths

let test_gauge_basics () =
  let g = Obs.gauge "test.gauge" in
  Obs.set_gauge g 3.5;
  check "disabled set is a no-op" true (Float.is_nan (Obs.gauge_value g));
  Obs.set_enabled true;
  Obs.set_gauge g 3.5;
  Obs.set_gauge g 4.5;
  Alcotest.(check (float 0.)) "last write wins" 4.5 (Obs.gauge_value g);
  check "same name, same cell" true (Obs.gauge "test.gauge" == g);
  let snap = Obs.Snapshot.capture () in
  check "set gauges snapshot" true
    (List.mem_assoc "test.gauge" snap.Obs.Snapshot.gauges);
  check "unset gauges do not" true
    (ignore (Obs.gauge "test.gauge.unset");
     not
       (List.mem_assoc "test.gauge.unset"
          (Obs.Snapshot.capture ()).Obs.Snapshot.gauges));
  Obs.reset ();
  check "reset clears the value" true (Float.is_nan (Obs.gauge_value g));
  check "reset clears the snapshot" true
    ((Obs.Snapshot.capture ()).Obs.Snapshot.gauges = [])

let test_gc_gauges () =
  Obs.set_enabled true;
  Obs.set_gc_sampling true;
  Fun.protect ~finally:(fun () -> Obs.set_gc_sampling false) @@ fun () ->
  Obs.span "work" (fun () -> ignore (Array.init 10_000 (fun i -> [ i ])));
  let snap = Obs.Snapshot.capture () in
  let v name = List.assoc_opt name snap.Obs.Snapshot.gauges in
  check "heap words sampled" true
    (match v "gc.heap_words" with Some x -> x > 0. | None -> false);
  check "minor words sampled" true
    (match v "gc.minor_words" with Some x -> x > 0. | None -> false);
  (* 10_000 one-cell lists, 3 words each (the array itself is too
     large for the minor heap) *)
  check "span charged its minor words" true
    (Obs.span_minor_words "work" >= 30_000.);
  Obs.set_gc_sampling false;
  Obs.span "unsampled" (fun () -> ignore (Array.init 10_000 (fun i -> [ i ])));
  check "unsampled span charged nothing" true
    (Obs.span_minor_words "unsampled" = 0.)

(* ------------------------------------------------------------------ *)
(* Determinism for a fixed seed                                        *)
(* ------------------------------------------------------------------ *)

let counters_of f =
  Obs.reset ();
  Obs.set_enabled true;
  f ();
  Obs.set_enabled false;
  (Obs.Snapshot.capture ()).Obs.Snapshot.counters

let test_backbone_counters_deterministic () =
  let pts = deployment 2002L 60 60. in
  let run () = ignore (Core.Backbone.build pts ~radius:60.) in
  let c1 = counters_of run and c2 = counters_of run in
  check "two identical builds, identical counters" true (c1 = c2);
  let v name = List.assoc name c1 in
  check "predicates counted" true (v "predicates.incircle" > 0);
  check "stars counted" true (v "delaunay.star" > 0);
  check "grid queried once per node" true (v "grid.queries" = 60);
  check "fallbacks never exceed calls" true
    (v "predicates.orient2d.exact" <= v "predicates.orient2d"
    && v "predicates.incircle.exact" <= v "predicates.incircle")

let test_protocol_message_counters_deterministic () =
  let pts = deployment 2002L 50 60. in
  let run () = ignore (Core.Protocol.run pts ~radius:60.) in
  let c1 = counters_of run and c2 = counters_of run in
  check "message counters deterministic" true (c1 = c2);
  let v name = List.assoc name c1 in
  check "messages flowed" true (v "distsim.messages" > 0);
  checki "four engine phases" 4 (v "distsim.runs");
  (* the obs channel agrees with the engine's own per-phase account *)
  Obs.reset ();
  Obs.set_enabled true;
  let r = Core.Protocol.run pts ~radius:60. in
  Obs.set_enabled false;
  let snap = (Obs.Snapshot.capture ()).Obs.Snapshot.counters in
  let total =
    List.fold_left
      (fun acc s -> acc + Distsim.Engine.total_sent s)
      0
      [
        r.Core.Protocol.stats_cluster;
        r.Core.Protocol.stats_connector;
        r.Core.Protocol.stats_status;
        r.Core.Protocol.stats_ldel;
      ]
  in
  checki "obs total = stats total" total (List.assoc "distsim.messages" snap);
  let by_kind_total =
    List.fold_left
      (fun acc (name, v) ->
        if String.length name > 12 && String.sub name 0 12 = "distsim.msg." then
          acc + v
        else acc)
      0 snap
  in
  checki "per-kind counters sum to the total" total by_kind_total

(* ------------------------------------------------------------------ *)
(* Exact quantiles                                                     *)
(* ------------------------------------------------------------------ *)

(* The reference: NaNs dropped, a sorted list, linear interpolation at
   rank q*(n-1); [nan] when nothing is left. *)
let quantile_oracle xs q =
  let a =
    Array.of_list
      (List.sort compare
         (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list xs)))
  in
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float (floor pos) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

(* short arrays over a few values (duplicates), NaNs among them, and
   the q = 0 / q = 1 ends among the probes *)
let gen_quantile_case =
  let open QCheck.Gen in
  let value =
    frequency
      [ (4, map float_of_int (int_range (-3) 3)); (2, float_range (-1e3) 1e3);
        (1, return nan) ]
  in
  let q =
    frequency [ (1, return 0.); (1, return 1.); (3, float_range 0. 1.) ]
  in
  pair
    (frequency
       [ (1, return [||]); (1, map (fun x -> [| x |]) value);
         (6, array_size (int_range 2 40) value) ])
    (array_size (int_range 1 6) q)

let prop_quantiles_match_oracle =
  QCheck.Test.make ~name:"quantiles = sort oracle" ~count:2000
    (QCheck.make
       ~print:(fun (xs, qs) ->
         let fs a =
           String.concat ";" (Array.to_list (Array.map string_of_float a))
         in
         Printf.sprintf "xs=[%s] qs=[%s]" (fs xs) (fs qs))
       gen_quantile_case)
    (fun (xs, qs) ->
      let before = Array.copy xs in
      let got = Obs.quantiles xs qs in
      Array.length got = Array.length qs
      && Array.for_all2
           (fun q g ->
             let want = quantile_oracle xs q in
             Float.equal want g)
           qs got
      && Array.for_all2 Float.equal before xs)

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_histogram_basics () =
  let module H = Obs.Histogram in
  let h = H.create () in
  H.observe h 1.0;
  H.observe h 1.5;
  H.observe h 0.;
  checki "count" 3 (H.count h);
  Alcotest.(check (float 1e-12)) "sum" 2.5 (H.sum h);
  let b = H.buckets h in
  checki "le bound is inclusive: 1.0 lands on the 1.0 bucket" 1 b.(10);
  checki "1.5 lands in the next bucket (le 2.0)" 1 b.(11);
  checki "values at or below the lowest bound share bucket 0" 1 b.(0);
  Alcotest.(check (float 0.)) "p50 is the holding bucket's upper bound" 1.0
    (H.quantile h 0.5);
  Alcotest.(check (float 0.)) "p99 reaches the top bucket" 2.0
    (H.quantile h 0.99);
  check "empty histogram quantile is nan" true
    (Float.is_nan (H.quantile (H.create ()) 0.5));
  let over = H.create () in
  H.observe over 1e12;
  checki "beyond the last bound overflows into the +Inf bucket" 1
    (H.buckets over).(H.buckets_len - 1)

let test_histogram_merge_commutes () =
  let module H = Obs.Histogram in
  let obs h vs = List.iter (H.observe h) vs in
  let a = H.create () and b = H.create () in
  obs a [ 0.5; 3.0; 700. ];
  obs b [ 0.5; 0.25 ];
  let ab = H.create () and ba = H.create () in
  H.merge_into ~into:ab a;
  H.merge_into ~into:ab b;
  H.merge_into ~into:ba b;
  H.merge_into ~into:ba a;
  check "merge is commutative bucket-for-bucket" true
    (H.buckets ab = H.buckets ba
    && H.count ab = H.count ba
    && H.sum ab = H.sum ba);
  checki "merged count is the sum" 5 (H.count ab)

let test_histogram_registry () =
  let h = Obs.histogram "test.hist" in
  Obs.observe_hist h 1.0;
  checki "disabled observe is a no-op" 0 (Obs.Histogram.count h);
  Obs.set_enabled true;
  Obs.observe_hist h 1.0;
  check "same name, same cell" true (Obs.histogram "test.hist" == h);
  let snap = Obs.Snapshot.capture () in
  check "observed histograms snapshot" true
    (List.mem_assoc "test.hist" snap.Obs.Snapshot.hists);
  check "empty histograms do not" true
    (ignore (Obs.histogram "test.hist.empty");
     not
       (List.mem_assoc "test.hist.empty"
          (Obs.Snapshot.capture ()).Obs.Snapshot.hists));
  Obs.reset ();
  checki "reset zeroes but keeps the handle" 0 (Obs.Histogram.count h)

(* ------------------------------------------------------------------ *)
(* Sparkline rendering, including degenerate series                    *)
(* ------------------------------------------------------------------ *)

let spark = Obs.Telemetry.sparkline
let mid_bar = "\xe2\x96\x84" (* ▄ *)
let lo_bar = "\xe2\x96\x81" (* ▁ *)
let hi_bar = "\xe2\x96\x88" (* █ *)

let test_sparkline_basics () =
  Alcotest.(check string) "empty series" "" (spark []);
  Alcotest.(check string) "two-point ramp" (lo_bar ^ hi_bar) (spark [ 0.; 7. ])

let test_sparkline_single_sample () =
  Alcotest.(check string) "one sample renders the middle bar" mid_bar
    (spark [ 42. ])

let test_sparkline_constant_series () =
  Alcotest.(check string) "constant series renders flat middle bars"
    (mid_bar ^ mid_bar ^ mid_bar)
    (spark [ 3.; 3.; 3. ]);
  Alcotest.(check string) "constant zero too" (mid_bar ^ mid_bar)
    (spark [ 0.; 0. ])

let test_sparkline_non_finite () =
  Alcotest.(check string) "nan samples are dropped" mid_bar (spark [ nan; 5. ]);
  Alcotest.(check string) "all-nan renders nothing" "" (spark [ nan; nan ]);
  Alcotest.(check string) "infinity pins to the top bar without skewing scale"
    (lo_bar ^ hi_bar ^ hi_bar)
    (spark [ 1.; 2.; infinity ]);
  Alcotest.(check string) "neg_infinity pins to the bottom bar"
    (lo_bar ^ lo_bar ^ hi_bar)
    (spark [ neg_infinity; 1.; 2. ])

(* ------------------------------------------------------------------ *)
(* compare_against mismatch paths                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_of f =
  Obs.reset ();
  Obs.set_enabled true;
  f ();
  Obs.set_enabled false;
  Obs.Snapshot.capture ()

(* a mismatch of [kind] on [name] whose expected/actual values, where
   given, match ([nan] matches [nan]: the unrecorded and missing
   sides) *)
let has ?expected ?actual kind name (ms : Obs.Snapshot.mismatch list) =
  let agrees want got =
    match want with None -> true | Some w -> Float.equal w got
  in
  List.exists
    (fun (m : Obs.Snapshot.mismatch) ->
      m.Obs.Snapshot.m_kind = kind
      && m.Obs.Snapshot.m_name = name
      && agrees expected m.Obs.Snapshot.m_expected
      && agrees actual m.Obs.Snapshot.m_actual)
    ms

let test_compare_against_mismatch_paths () =
  let populate () =
    Obs.add (Obs.counter "ck.c") 5;
    Obs.observe (Obs.dist "ck.d") 1.0;
    Obs.observe_hist (Obs.histogram "ck.h") 1.0;
    Obs.span "ck.s" (fun () -> ())
  in
  let reference = snapshot_of populate in
  let diff ?(threshold = 0.5) ?(reference = reference) current =
    Obs.Snapshot.compare_against ~threshold ~reference current
  in
  (* a second run of [populate] with the reference's span seconds: an
     empty span's wall time is scheduler noise, and a fast reference
     against a preempted rerun would breach any relative threshold *)
  let same =
    let rerun = snapshot_of populate in
    {
      rerun with
      Obs.Snapshot.spans =
        List.map
          (fun (s : Obs.Snapshot.span_stats) ->
            match
              List.find_opt
                (fun (r : Obs.Snapshot.span_stats) ->
                  r.Obs.Snapshot.path = s.Obs.Snapshot.path)
                reference.Obs.Snapshot.spans
            with
            | Some r -> { s with Obs.Snapshot.seconds = r.Obs.Snapshot.seconds }
            | None -> s)
          rerun.Obs.Snapshot.spans;
    }
  in
  check "identical run checks clean" true (diff same = []);
  (* missing keys, a kind swap (ck.d re-registered as a counter), a
     counter delta and a histogram observed into a different bucket *)
  let drift =
    snapshot_of (fun () ->
        Obs.add (Obs.counter "ck.c") 7;
        Obs.add (Obs.counter "ck.d") 1;
        Obs.observe_hist (Obs.histogram "ck.h") 700.;
        Obs.span "ck.s" (fun () -> ()))
  in
  let ms = diff drift in
  check "counter delta reported" true
    (has "counter" "ck.c" ~expected:5. ~actual:7. ms);
  check "kind swap surfaces as the dist gone missing" true
    (has "dist.count" "ck.d" ~expected:1. ~actual:nan ms);
  (* the one observation left its bucket for another: both buckets
     are itemized under their le bound, the total is unchanged *)
  let bucket (m : Obs.Snapshot.mismatch) =
    m.Obs.Snapshot.m_kind = "hist.bucket"
    && String.length m.Obs.Snapshot.m_name > 8
    && String.sub m.Obs.Snapshot.m_name 0 8 = "ck.h[le="
  in
  let moved =
    List.filter_map
      (fun (m : Obs.Snapshot.mismatch) ->
        if bucket m then Some (m.Obs.Snapshot.m_expected, m.Obs.Snapshot.m_actual)
        else None)
      ms
  in
  check "histogram bucket deltas are itemized with their le bound" true
    (List.sort compare moved = [ (0., 1.); (1., 0.) ]);
  check "histogram total unchanged" false
    (has "hist.count" "ck.h" ms);
  (* a histogram absent from the run *)
  let hist_gone =
    snapshot_of (fun () ->
        Obs.add (Obs.counter "ck.c") 5;
        Obs.observe (Obs.dist "ck.d") 1.0;
        Obs.span "ck.s" (fun () -> ()))
  in
  check "missing histogram reported" true
    (has "hist.count" "ck.h" ~expected:1. ~actual:nan (diff hist_gone));
  (* span wall-clock beyond the threshold: doctor the captured seconds
     so the delta is deterministic *)
  let slow =
    {
      same with
      Obs.Snapshot.spans =
        List.map
          (fun (s : Obs.Snapshot.span_stats) ->
            { s with Obs.Snapshot.seconds = s.Obs.Snapshot.seconds +. 1. })
          same.Obs.Snapshot.spans;
    }
  in
  let ck_s (s : Obs.Snapshot.t) =
    (List.find
       (fun (sp : Obs.Snapshot.span_stats) -> sp.Obs.Snapshot.path = "ck.s")
       s.Obs.Snapshot.spans)
      .Obs.Snapshot.seconds
  in
  check "span regression beyond threshold reported" true
    (has "span.seconds" "ck.s" ~expected:(ck_s reference) ~actual:(ck_s slow)
       (diff slow));
  check "span within threshold passes" true
    (diff ~reference:slow slow = []);
  (* a counter the run emits but the reference lacks is gated too; a
     zero one, like a counter missing from the run at zero, is not *)
  let extra =
    snapshot_of (fun () ->
        populate ();
        Obs.add (Obs.counter "ck.new") 3;
        ignore (Obs.counter "ck.zero"))
  in
  let ms = diff ~threshold:10. extra in
  check "unrecorded counter reported" true
    (has "counter" "ck.new" ~expected:nan ~actual:3. ms);
  check "zero unrecorded counter passes" false
    (List.exists
       (fun (m : Obs.Snapshot.mismatch) -> m.Obs.Snapshot.m_name = "ck.zero")
       ms)

(* ------------------------------------------------------------------ *)
(* Sinks round-trip                                                    *)
(* ------------------------------------------------------------------ *)

let populated_snapshot () =
  Obs.set_enabled true;
  let c = Obs.counter "rt.counter" in
  Obs.add c 12345;
  let d = Obs.dist "rt.dist" in
  Obs.observe d 1.5;
  Obs.observe d 0.25;
  Obs.span "rt" (fun () -> Obs.span "leg" (fun () -> ()));
  Obs.set_gauge (Obs.gauge "rt.gauge") 2.75;
  let h = Obs.histogram "rt.hist" in
  Obs.observe_hist h 0.5;
  Obs.observe_hist h 3.0;
  Obs.observe_hist h 1e12;
  ignore (Core.Backbone.build (deployment 2002L 30 60.) ~radius:60.);
  Obs.set_enabled false;
  Obs.Snapshot.capture ()

let render sink_of snap =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  (sink_of fmt : Obs.sink) snap;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_json_roundtrip () =
  let snap = populated_snapshot () in
  let parsed = Obs.Snapshot.of_json_lines (render Obs.json snap) in
  check "json round-trips bit-for-bit" true (parsed = snap)

let test_csv_roundtrip () =
  let snap = populated_snapshot () in
  let parsed = Obs.Snapshot.of_csv (render Obs.csv snap) in
  check "csv round-trips bit-for-bit" true (parsed = snap)

let test_pretty_mentions_everything () =
  let snap = populated_snapshot () in
  let out = render Obs.pretty snap in
  let mentions needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle -> check ("pretty mentions " ^ needle) true (mentions needle))
    [ "rt.counter"; "12345"; "rt.dist"; "leg"; "rt.gauge";
      "predicates.orient2d" ]

let test_named_sinks () =
  check "pretty known" true
    (Obs.named_sink Format.str_formatter "pretty" <> None);
  check "json known" true (Obs.named_sink Format.str_formatter "json" <> None);
  check "csv known" true (Obs.named_sink Format.str_formatter "csv" <> None);
  check "xml unknown" true (Obs.named_sink Format.str_formatter "xml" = None)

(* ------------------------------------------------------------------ *)
(* Backbone.Config sink plumbing                                       *)
(* ------------------------------------------------------------------ *)

let test_config_sink () =
  let captured = ref None in
  let cfg =
    {
      Core.Backbone.Config.default with
      Core.Backbone.Config.radius = 60.;
      sink = Some (fun snap -> captured := Some snap);
    }
  in
  ignore (Core.Backbone.run cfg (deployment 2002L 40 60.));
  check "obs restored to disabled" true (not (Obs.enabled ()));
  match !captured with
  | None -> Alcotest.fail "sink not invoked"
  | Some snap ->
    let v name = List.assoc name snap.Obs.Snapshot.counters in
    check "counters flowed through the sink" true
      (v "predicates.incircle" > 0 && v "delaunay.star" > 0);
    check "stage spans reported" true
      (List.exists
         (fun s -> s.Obs.Snapshot.path = "backbone/shard/shard.mis")
         snap.Obs.Snapshot.spans)

(* ------------------------------------------------------------------ *)
(* Recorder ring wrap                                                  *)
(* ------------------------------------------------------------------ *)

let test_recorder_wrap_order () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Recorder.set_capacity 256;
      Obs.Recorder.clear ())
    (fun () ->
      Obs.Recorder.set_capacity 4;
      Obs.Recorder.clear ();
      let note i = Obs.Recorder.record (Obs.Recorder.Note (string_of_int i)) in
      (* main fills part of its ring... *)
      note 0;
      note 1;
      (* ...a second domain wraps its own ring completely... *)
      Domain.join
        (Domain.spawn (fun () ->
             for i = 2 to 6 do
               note i
             done));
      (* ...then main wraps too *)
      for i = 7 to 11 do
        note i
      done;
      let entries = Obs.Recorder.entries () in
      (* per-domain rings keep their newest 4: seqs 3-6 from the spawned
         domain, 8-11 from main — and the cross-domain merge must
         deliver them in global-sequence order despite both wraps *)
      let seqs = List.map (fun (e : Obs.Recorder.entry) -> e.Obs.Recorder.e_seq) entries in
      Alcotest.(check (list int)) "survivors in global order"
        [ 3; 4; 5; 6; 8; 9; 10; 11 ] seqs;
      let notes =
        List.map
          (fun (e : Obs.Recorder.entry) ->
            match e.Obs.Recorder.e_event with
            | Obs.Recorder.Note s -> s
            | _ -> "?")
          entries
      in
      Alcotest.(check (list string)) "payloads follow the sequence"
        [ "3"; "4"; "5"; "6"; "8"; "9"; "10"; "11" ] notes;
      check "two domains contributed" true
        (List.length
           (List.sort_uniq compare
              (List.map (fun (e : Obs.Recorder.entry) -> e.Obs.Recorder.e_dom) entries))
        = 2))

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "counter basics" `Quick (isolated test_counter_basics);
        Alcotest.test_case "disabled leaves counters untouched" `Quick
          (isolated test_disabled_leaves_counters_untouched);
        Alcotest.test_case "span nesting" `Quick (isolated test_span_nesting);
        Alcotest.test_case "span unwinds on exception" `Quick
          (isolated test_span_unwinds_on_exception);
        Alcotest.test_case "gauge basics" `Quick (isolated test_gauge_basics);
        Alcotest.test_case "gc gauges" `Quick (isolated test_gc_gauges);
        QCheck_alcotest.to_alcotest prop_quantiles_match_oracle;
        Alcotest.test_case "histogram basics" `Quick
          (isolated test_histogram_basics);
        Alcotest.test_case "histogram merge commutes" `Quick
          (isolated test_histogram_merge_commutes);
        Alcotest.test_case "histogram registry" `Quick
          (isolated test_histogram_registry);
        Alcotest.test_case "sparkline basics" `Quick
          (isolated test_sparkline_basics);
        Alcotest.test_case "sparkline single sample" `Quick
          (isolated test_sparkline_single_sample);
        Alcotest.test_case "sparkline constant series" `Quick
          (isolated test_sparkline_constant_series);
        Alcotest.test_case "sparkline non-finite samples" `Quick
          (isolated test_sparkline_non_finite);
        Alcotest.test_case "compare_against mismatch paths" `Quick
          (isolated test_compare_against_mismatch_paths);
        Alcotest.test_case "backbone counters deterministic" `Quick
          (isolated test_backbone_counters_deterministic);
        Alcotest.test_case "protocol message counters deterministic" `Quick
          (isolated test_protocol_message_counters_deterministic);
        Alcotest.test_case "json round-trip" `Quick (isolated test_json_roundtrip);
        Alcotest.test_case "csv round-trip" `Quick (isolated test_csv_roundtrip);
        Alcotest.test_case "pretty output" `Quick
          (isolated test_pretty_mentions_everything);
        Alcotest.test_case "named sinks" `Quick (isolated test_named_sinks);
        Alcotest.test_case "Config sink plumbing" `Quick
          (isolated test_config_sink);
        Alcotest.test_case "recorder ring-wrap ordering" `Quick
          (isolated test_recorder_wrap_order);
      ] );
  ]

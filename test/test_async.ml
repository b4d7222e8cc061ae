(* The asynchronous engine and the async clustering protocol. *)

module G = Netgraph.Graph
module Csr = Netgraph.Csr
module AE = Distsim.Async_engine

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let unit_delay ~from:_ ~dst:_ ~seq:_ = 1.

let random_delay rng ~from:_ ~dst:_ ~seq:_ =
  0.01 +. Wireless.Rand.float rng 10.

(* ---------------- engine ---------------- *)

let test_async_delivery_order () =
  (* two messages from 0 to 1 with inverted delays arrive reordered *)
  let g = Csr.of_graph (G.of_edges 2 [ (0, 1) ]) in
  let delay ~from:_ ~dst:_ ~seq = if seq = 0 then 10. else 1. in
  let proto =
    {
      AE.init = (fun _ _ -> []);
      AE.on_start =
        (fun ctx st ->
          if ctx.AE.me = 0 then begin
            ctx.AE.broadcast "first";
            ctx.AE.broadcast "second"
          end;
          st);
      AE.on_message = (fun _ st d -> st @ [ d.AE.msg ]);
    }
  in
  let states, stats = AE.run ~delay g proto in
  Alcotest.(check (list string))
    "reordered" [ "second"; "first" ] states.(1);
  checki "two deliveries" 2 stats.AE.deliveries;
  Alcotest.(check (float 1e-9)) "finish at slowest" 10. stats.AE.finish_time

let test_async_delivery_times () =
  let g = Csr.of_graph (G.of_edges 3 [ (0, 1); (0, 2) ]) in
  let delay ~from:_ ~dst ~seq:_ = if dst = 1 then 2. else 5. in
  let proto =
    {
      AE.init = (fun _ _ -> 0.);
      AE.on_start =
        (fun ctx st ->
          if ctx.AE.me = 0 then ctx.AE.broadcast ();
          st);
      AE.on_message = (fun _ _ d -> d.AE.time);
    }
  in
  let states, _ = AE.run ~delay g proto in
  Alcotest.(check (float 1e-9)) "node 1 at 2" 2. states.(1);
  Alcotest.(check (float 1e-9)) "node 2 at 5" 5. states.(2)

let test_async_invalid_delay () =
  let g = Csr.of_graph (G.of_edges 2 [ (0, 1) ]) in
  let proto =
    {
      AE.init = (fun _ _ -> ());
      AE.on_start =
        (fun ctx st ->
          if ctx.AE.me = 0 then ctx.AE.broadcast ();
          st);
      AE.on_message = (fun _ st _ -> st);
    }
  in
  check "zero delay rejected" true
    (try
       ignore (AE.run ~delay:(fun ~from:_ ~dst:_ ~seq:_ -> 0.) g proto);
       false
     with Invalid_argument _ -> true)

let test_async_runaway_detected () =
  (* ping-pong forever: the delivery bound must fire *)
  let g = Csr.of_graph (G.of_edges 2 [ (0, 1) ]) in
  let proto =
    {
      AE.init = (fun _ _ -> ());
      AE.on_start =
        (fun ctx st ->
          if ctx.AE.me = 0 then ctx.AE.broadcast ();
          st);
      AE.on_message =
        (fun ctx st _ ->
          ctx.AE.broadcast ();
          st);
    }
  in
  check "bound fires" true
    (try
       ignore (AE.run ~max_messages:1000 ~delay:unit_delay g proto);
       false
     with Failure _ -> true)

(* ---------------- async clustering ---------------- *)

(* the UDG twice: the graph the synchronous MIS runs on, and the CSR
   the asynchronous engine runs on *)
let instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  (Wireless.Udg.build pts ~radius, Wireless.Udg.build_csr pts ~radius)

let test_async_cluster_equals_sync_unit_delays () =
  for seed = 950 to 954 do
    let udg, csr = instance (Int64.of_int seed) 80 50. in
    let roles, stats = Core.Async_cluster.run ~delay:unit_delay csr in
    check "equals synchronous MIS" true (roles = Core.Mis.compute udg);
    (* exactly one announcement per node *)
    Array.iter (fun s -> checki "one send" 1 s) stats.AE.sent
  done

let test_async_cluster_equals_sync_random_delays () =
  (* the headline: arbitrary (positive) per-message delays do not
     change the outcome *)
  for seed = 960 to 969 do
    let udg, csr = instance (Int64.of_int seed) 70 50. in
    let expected = Core.Mis.compute udg in
    let rng = Wireless.Rand.create (Int64.of_int (seed * 31)) in
    let roles, _ = Core.Async_cluster.run ~delay:(random_delay rng) csr in
    check "delay-independent" true (roles = expected)
  done

let test_async_cluster_adversarial_delays () =
  (* slow down exactly the announcements of small-ID nodes — the
     decisions that everything else waits on *)
  let udg, csr = instance 970L 60 50. in
  let expected = Core.Mis.compute udg in
  let delay ~from ~dst:_ ~seq:_ = if from < 10 then 1000. else 0.5 in
  let roles, stats = Core.Async_cluster.run ~delay csr in
  check "still correct" true (roles = expected);
  check "finish dominated by stragglers" true (stats.AE.finish_time >= 1000.)

let test_async_cluster_path () =
  let g = Csr.of_graph (G.of_edges 5 [ (0, 1); (1, 2); (2, 3); (3, 4) ]) in
  let roles, _ = Core.Async_cluster.run ~delay:unit_delay g in
  check "path MIS" true
    (roles
    = [| Core.Mis.Dominator; Core.Mis.Dominatee; Core.Mis.Dominator;
         Core.Mis.Dominatee; Core.Mis.Dominator |])

let suites =
  [
    ( "distsim.async",
      [
        Alcotest.test_case "reordered delivery" `Quick
          test_async_delivery_order;
        Alcotest.test_case "delivery times" `Quick test_async_delivery_times;
        Alcotest.test_case "invalid delay" `Quick test_async_invalid_delay;
        Alcotest.test_case "runaway detected" `Quick
          test_async_runaway_detected;
      ] );
    ( "core.async_cluster",
      [
        Alcotest.test_case "equals sync (unit delays)" `Quick
          test_async_cluster_equals_sync_unit_delays;
        Alcotest.test_case "equals sync (random delays)" `Quick
          test_async_cluster_equals_sync_random_delays;
        Alcotest.test_case "adversarial delays" `Quick
          test_async_cluster_adversarial_delays;
        Alcotest.test_case "path network" `Quick test_async_cluster_path;
      ] );
  ]

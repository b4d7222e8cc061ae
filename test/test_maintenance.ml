(* Mobility models and backbone maintenance. *)

module P = Geometry.Point

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let inside side (p : P.t) = p.x >= 0. && p.x <= side && p.y >= 0. && p.y <= side

(* ---------------- mobility models ---------------- *)

let test_random_waypoint_bounds_and_speed () =
  let rng = Wireless.Rand.create 600L in
  let init = Wireless.Deploy.uniform rng ~n:50 ~side:100. in
  let m =
    Wireless.Mobility.random_waypoint rng ~side:100. ~min_speed:1.
      ~max_speed:3. ~init
  in
  let prev = ref (Array.copy (Wireless.Mobility.positions m)) in
  for _ = 1 to 50 do
    Wireless.Mobility.step m;
    let cur = Wireless.Mobility.positions m in
    Array.iteri
      (fun i p ->
        check "inside region" true (inside 100. p);
        (* per-step displacement never exceeds the max speed *)
        check "speed cap" true (P.dist !prev.(i) p <= 3. +. 1e-9))
      cur;
    prev := Array.copy cur
  done

let test_random_waypoint_moves () =
  let rng = Wireless.Rand.create 601L in
  let init = Wireless.Deploy.uniform rng ~n:20 ~side:100. in
  let snapshot = Array.copy init in
  let m =
    Wireless.Mobility.random_waypoint rng ~side:100. ~min_speed:2.
      ~max_speed:2. ~init
  in
  Wireless.Mobility.step_many m 10;
  let moved = ref 0 in
  Array.iteri
    (fun i p ->
      if P.dist snapshot.(i) p > 1. then incr moved)
    (Wireless.Mobility.positions m);
  check "most nodes moved" true (!moved > 15)

let test_random_waypoint_invalid () =
  let rng = Wireless.Rand.create 602L in
  let init = [| P.make 0. 0. |] in
  check "bad speeds" true
    (try
       ignore
         (Wireless.Mobility.random_waypoint rng ~side:10. ~min_speed:3.
            ~max_speed:1. ~init);
       false
     with Invalid_argument _ -> true)

let test_gauss_markov_bounds () =
  let rng = Wireless.Rand.create 603L in
  let init = Wireless.Deploy.uniform rng ~n:40 ~side:50. in
  let m =
    Wireless.Mobility.gauss_markov rng ~side:50. ~alpha:0.8 ~mean_speed:2.
      ~init
  in
  for _ = 1 to 100 do
    Wireless.Mobility.step m;
    Array.iter
      (fun p -> check "inside region" true (inside 50. p))
      (Wireless.Mobility.positions m)
  done

let test_gauss_markov_memory () =
  (* alpha = 1 with zero noise: straight-line motion; consecutive
     displacements are identical *)
  let rng = Wireless.Rand.create 604L in
  let init = [| P.make 25. 25. |] in
  let m =
    Wireless.Mobility.gauss_markov rng ~side:1000. ~alpha:1. ~mean_speed:1.
      ~init
  in
  let p0 = (Wireless.Mobility.positions m).(0) in
  Wireless.Mobility.step m;
  let p1 = (Wireless.Mobility.positions m).(0) in
  Wireless.Mobility.step m;
  let p2 = (Wireless.Mobility.positions m).(0) in
  let d1 = P.sub p1 p0 and d2 = P.sub p2 p1 in
  check "straight line" true (P.close ~eps:1e-9 d1 d2)

let test_partial_keeps_static_nodes () =
  let rng = Wireless.Rand.create 605L in
  let init = Wireless.Deploy.uniform rng ~n:60 ~side:100. in
  let snapshot = Array.copy init in
  let m =
    Wireless.Mobility.partial rng ~side:100. ~mobile:0.3 ~speed:2. ~init
  in
  Wireless.Mobility.step_many m 20;
  let static = ref 0 and moved = ref 0 in
  Array.iteri
    (fun i p ->
      if P.equal snapshot.(i) p then incr static
      else incr moved)
    (Wireless.Mobility.positions m);
  check "some static" true (!static > 20);
  check "some moved" true (!moved > 5)

(* ---------------- maintenance ---------------- *)

let build seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  Core.Backbone.build pts ~radius

let test_refresh_identity_when_static () =
  let bb = build 700L 80 50. in
  checki "no broken links" 0
    (Core.Maintenance.needs_refresh bb bb.Core.Backbone.snap.Core.Shard.points);
  let next, stats = Core.Maintenance.refresh bb bb.Core.Backbone.snap.Core.Shard.points in
  checki "no role changes" 0 stats.Core.Maintenance.role_changes;
  checki "no backbone changes" 0 stats.Core.Maintenance.backbone_changes;
  checki "no edge changes" 0 stats.Core.Maintenance.edge_changes;
  check "identical structure" true
    (Netgraph.Csr.edges next.Core.Backbone.snap.Core.Shard.pldel'
    = Netgraph.Csr.edges bb.Core.Backbone.snap.Core.Shard.pldel')

let test_refresh_valid_after_motion () =
  let bb = build 701L 80 50. in
  let rng = Wireless.Rand.create 99L in
  let m =
    Wireless.Mobility.random_waypoint rng ~side:200. ~min_speed:3.
      ~max_speed:6. ~init:bb.Core.Backbone.snap.Core.Shard.points
  in
  let prev = ref bb in
  for _ = 1 to 5 do
    Wireless.Mobility.step_many m 3;
    let positions = Array.copy (Wireless.Mobility.positions m) in
    let udg = Wireless.Udg.build positions ~radius:50. in
    if Netgraph.Csr.is_connected udg then begin
      let next, _ = Core.Maintenance.refresh !prev positions in
      let s = next.Core.Backbone.snap in
      let roles = s.Core.Shard.roles in
      check "MIS independent" true (Core.Mis.is_independent udg roles);
      check "MIS dominating" true (Core.Mis.is_dominating udg roles);
      check "backbone connected" true
        (Netgraph.Components.connected_within
           s.Core.Shard.cds
           (List.filter (fun u -> s.Core.Shard.backbone.(u))
              (List.init (Array.length roles) Fun.id)));
      check "planar" true
        (Netgraph.Planarity.is_planar next.Core.Backbone.ldel_icds_g positions);
      check "spans" true (Netgraph.Csr.is_connected s.Core.Shard.pldel');
      prev := next
    end
  done

let test_refresh_more_stable_than_rebuild () =
  (* aggregate role churn across seeds and a longish mobility run:
     the stability-first policy must flap less than raw rebuilds.
     (Single short runs are noisy; the aggregate gap is large — about
     a third less churn.) *)
  let total_stable = ref 0 and total_naive = ref 0 in
  List.iter
    (fun seed ->
      let bb = build seed 100 50. in
      let run policy =
        let rng = Wireless.Rand.create 123L in
        let m =
          Wireless.Mobility.random_waypoint rng ~side:200. ~min_speed:2.
            ~max_speed:4. ~init:bb.Core.Backbone.snap.Core.Shard.points
        in
        let prev = ref bb in
        let churn = ref 0 in
        for _ = 1 to 15 do
          Wireless.Mobility.step_many m 2;
          let positions = Array.copy (Wireless.Mobility.positions m) in
          let udg = Wireless.Udg.build positions ~radius:50. in
          if Netgraph.Csr.is_connected udg then begin
            let next, stats = policy !prev positions in
            churn := !churn + stats.Core.Maintenance.role_changes;
            prev := next
          end
        done;
        !churn
      in
      total_stable := !total_stable + run Core.Maintenance.refresh;
      total_naive := !total_naive + run Core.Maintenance.rebuild)
    [ 702L; 703L; 704L ];
  check
    (Printf.sprintf "refresh churn (%d) < rebuild churn (%d)" !total_stable
       !total_naive)
    true
    (!total_stable < !total_naive)

let test_needs_refresh_counts () =
  let bb = build 703L 60 50. in
  (* teleport one backbone node far away: every one of its structure
     links breaks *)
  let positions = Array.copy bb.Core.Backbone.snap.Core.Shard.points in
  let s = bb.Core.Backbone.snap in
  let victim =
    List.find (fun u -> s.Core.Shard.backbone.(u))
      (List.init (Array.length positions) Fun.id)
  in
  positions.(victim) <- P.make 1e6 1e6;
  let broken = Core.Maintenance.needs_refresh bb positions in
  checki "all incident links broke"
    (Netgraph.Csr.degree s.Core.Shard.pldel' victim)
    broken

let suites =
  [
    ( "wireless.mobility",
      [
        Alcotest.test_case "waypoint bounds and speed" `Quick
          test_random_waypoint_bounds_and_speed;
        Alcotest.test_case "waypoint moves nodes" `Quick
          test_random_waypoint_moves;
        Alcotest.test_case "waypoint invalid speeds" `Quick
          test_random_waypoint_invalid;
        Alcotest.test_case "gauss-markov bounds" `Quick
          test_gauss_markov_bounds;
        Alcotest.test_case "gauss-markov memory" `Quick
          test_gauss_markov_memory;
        Alcotest.test_case "partial mobility" `Quick
          test_partial_keeps_static_nodes;
      ] );
    ( "core.maintenance",
      [
        Alcotest.test_case "static refresh is identity" `Quick
          test_refresh_identity_when_static;
        Alcotest.test_case "refresh keeps invariants" `Quick
          test_refresh_valid_after_motion;
        Alcotest.test_case "refresh flaps less than rebuild" `Slow
          test_refresh_more_stable_than_rebuild;
        Alcotest.test_case "needs_refresh counts broken links" `Quick
          test_needs_refresh_counts;
      ] );
  ]

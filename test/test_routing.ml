(* Geographic routing: greedy, GFG (GPSR-style), hierarchical. *)

module G = Netgraph.Csr
module P = Geometry.Point
module R = Core.Routing

let check = Alcotest.(check bool)

let instance seed n radius =
  let rng = Wireless.Rand.create seed in
  let pts, _ =
    Wireless.Deploy.connected_uniform rng ~n ~side:200. ~radius
      ~max_attempts:2000
  in
  pts

let test_greedy_straight_line () =
  let pts = Array.init 5 (fun i -> P.make (float_of_int i) 0.) in
  let g = (Wireless.Udg.build pts ~radius:1.2) in
  (match Core.Routing.greedy g pts ~src:0 ~dst:4 with
  | Some p -> Alcotest.(check (list int)) "direct chain" [ 0; 1; 2; 3; 4 ] p
  | None -> Alcotest.fail "greedy should succeed on a line");
  match Core.Routing.greedy g pts ~src:2 ~dst:2 with
  | Some p -> Alcotest.(check (list int)) "self" [ 2 ] p
  | None -> Alcotest.fail "self route"

let test_greedy_local_minimum () =
  (* a "C" shape: src and dst close in space, but the only path goes
     around; greedy gets stuck at the tip *)
  let pts =
    [|
      P.make 0. 0.; (* src *)
      P.make 0. 2.; (* up *)
      P.make 2. 2.; (* across *)
      P.make 2. 0.; (* down = dst side *)
      P.make 0.9 0.; (* dead-end closer to dst *)
    |]
  in
  let g = G.of_edges 5 [ (0, 4); (0, 1); (1, 2); (2, 3) ] in
  check "greedy stuck" true (Core.Routing.greedy g pts ~src:0 ~dst:3 = None);
  (* GFG recovers via the perimeter *)
  match Core.Routing.gfg g pts ~src:0 ~dst:3 with
  | Some p ->
    check "valid path" true (Netgraph.Traversal.is_path g p);
    check "ends at dst" true (List.nth p (List.length p - 1) = 3)
  | None -> Alcotest.fail "gfg must deliver on planar connected"

let test_gfg_delivery_guarantee () =
  for seed = 300 to 304 do
    let pts = instance (Int64.of_int seed) 60 50. in
    let bb = Core.Backbone.build pts ~radius:50. in
    let planar = Core.Backbone.ldel_full bb in
    check "planar precondition" true
      (Netgraph.Planarity.is_planar planar pts);
    let n = Array.length pts in
    for src = 0 to n - 1 do
      let dst = (src + (n / 2)) mod n in
      if src <> dst then
        match Core.Routing.gfg planar pts ~src ~dst with
        | Some p ->
          check "path valid" true (Netgraph.Traversal.is_path planar p);
          check "starts at src" true (List.hd p = src)
        | None -> Alcotest.failf "undelivered %d->%d (seed %d)" src dst seed
    done
  done

let test_gfg_disconnected_returns_none () =
  let pts = [| P.make 0. 0.; P.make 1. 0.; P.make 50. 0.; P.make 51. 0. |] in
  let g = G.of_edges 4 [ (0, 1); (2, 3) ] in
  check "unreachable" true (Core.Routing.gfg g pts ~src:0 ~dst:3 = None)

let test_hierarchical_delivery () =
  for seed = 310 to 312 do
    let pts = instance (Int64.of_int seed) 80 50. in
    let bb = Core.Backbone.build pts ~radius:50. in
    let n = Array.length pts in
    let rng = Wireless.Rand.create 999L in
    for _ = 1 to 50 do
      let src = Wireless.Rand.int rng n and dst = Wireless.Rand.int rng n in
      match Core.Routing.hierarchical bb.Core.Backbone.snap ~src ~dst with
      | Some p ->
        check "starts" true (List.hd p = src);
        check "ends" true (List.nth p (List.length p - 1) = dst)
      | None -> Alcotest.failf "hierarchical undelivered %d->%d" src dst
    done
  done

let test_hierarchical_adjacent_direct () =
  let pts = instance 313L 60 50. in
  let bb = Core.Backbone.build pts ~radius:50. in
  let udg = bb.Core.Backbone.udg in
  G.iter_edges udg (fun u v ->
      match Core.Routing.hierarchical bb.Core.Backbone.snap ~src:u ~dst:v with
      | Some p -> check "one hop" true (List.length p <= 2)
      | None -> Alcotest.fail "adjacent must deliver")

let test_hierarchical_path_edges_exist () =
  (* every hop of a hierarchical route is a real UDG link *)
  let pts = instance 314L 70 50. in
  let bb = Core.Backbone.build pts ~radius:50. in
  let n = Array.length pts in
  for src = 0 to n - 1 do
    let dst = (src + 17) mod n in
    if src <> dst then
      match Core.Routing.hierarchical bb.Core.Backbone.snap ~src ~dst with
      | Some p ->
        check "UDG-realizable" true
          (Netgraph.Traversal.is_path bb.Core.Backbone.udg p)
      | None -> Alcotest.fail "undelivered"
  done

(* The kernel and its list wrapper answer alike, out-of-range ids
   included, with one scratch shared across queries and snapshots;
   every delivered path walks UDG edges from src to dst. *)
let test_hierarchical_kernel_is_wrapper () =
  let sc = R.Scratch.create () in
  let recovered = ref 0 in
  List.iter
    (fun (seed, n, radius) ->
      let pts = instance seed n radius in
      let s = (Core.Backbone.build pts ~radius).Core.Backbone.snap in
      let udg = s.Core.Shard.udg in
      let rng = Wireless.Rand.create seed in
      for _ = 1 to 300 do
        let src = Wireless.Rand.int rng (n + 2) - 1
        and dst = Wireless.Rand.int rng (n + 2) - 1 in
        if
          src >= 0 && src < n && dst >= 0 && dst < n
          && R.greedy_into sc udg pts ~src ~dst < 0
        then incr recovered;
        let h = R.hierarchical_into sc s ~src ~dst in
        match R.hierarchical s ~src ~dst with
        | None -> check "both drop" true (h < 0)
        | Some p ->
          check "same path" true (h >= 0 && R.Scratch.path_list sc = p);
          check "src to dst" true
            (List.hd p = src && List.nth p (List.length p - 1) = dst);
          check "UDG edges" true
            (Netgraph.Traversal.is_path udg p)
      done)
    [ (320L, 90, 32.); (321L, 150, 25.); (322L, 40, 45.) ];
  (* greedy alone stalls on some pairs: the recovery path ran *)
  check "recovery exercised" true (!recovered > 0)

(* Each kernel leaves the reason of a drop in its scratch. *)
let test_drop_reasons () =
  let sc = R.Scratch.create () in
  let reason () = R.drop_reasons.(R.Scratch.drop sc) in
  (* the "C" fixture: greedy stalls at the dead end *)
  let pts =
    [| P.make 0. 0.; P.make 0. 2.; P.make 2. 2.; P.make 2. 0.; P.make 0.9 0. |]
  in
  let c = G.of_edges 5 [ (0, 4); (0, 1); (1, 2); (2, 3) ] in
  check "greedy dropped" true (R.greedy_into sc c pts ~src:0 ~dst:3 < 0);
  Alcotest.(check string) "greedy" "local_minimum" (reason ());
  check "gfg delivers" true (R.gfg_into sc c pts ~src:0 ~dst:3 >= 0);
  Alcotest.(check int) "no reason after a delivery" (-1) (R.Scratch.drop sc);
  (* two components: the perimeter walk closes its face *)
  let pts2 = [| P.make 0. 0.; P.make 1. 0.; P.make 50. 0.; P.make 51. 0. |] in
  let two = G.of_edges 4 [ (0, 1); (2, 3) ] in
  check "gfg dropped" true (R.gfg_into sc two pts2 ~src:0 ~dst:3 < 0);
  Alcotest.(check string) "gfg" "face_loop" (reason ());
  check "out of range" true (R.compass_into sc two pts2 ~src:0 ~dst:4 < 0);
  Alcotest.(check string) "range" "out_of_range" (reason ())

let test_variants_on_line () =
  (* on a straight chain every directional rule routes hop by hop *)
  let pts = Array.init 6 (fun i -> P.make (float_of_int i) 0.) in
  let g = (Wireless.Udg.build pts ~radius:1.2) in
  List.iter
    (fun (name, route) ->
      match route g pts ~src:0 ~dst:5 with
      | Some p ->
        Alcotest.(check (list int)) (name ^ " chain") [ 0; 1; 2; 3; 4; 5 ] p
      | None -> Alcotest.failf "%s failed on the chain" name)
    [
      ("greedy", Core.Routing.greedy);
      ("compass", Core.Routing.compass);
    ]

let test_variants_choose_differently () =
  (* src 0 at origin, dst 3 to the east; neighbor 1 is closest to dst
     (greedy's pick), neighbor 2 makes more forward progress *)
  let pts =
    [|
      P.make 0. 0.; (* src *)
      P.make 4. 0.5; (* closer to dst, less progress, nearer to src *)
      P.make 5. 3.; (* most forward progress, farther from dst *)
      P.make 7. 0.; (* dst *)
    |]
  in
  let g = G.of_edges 4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  match Core.Routing.greedy g pts ~src:0 ~dst:3 with
  | Some (_ :: v :: _) ->
    Alcotest.(check int) "greedy takes nearest-to-dst" 1 v
  | _ -> Alcotest.fail "greedy failed"

let test_variants_fail_without_progress () =
  (* dead end: no neighbor makes forward progress *)
  let pts = [| P.make 0. 0.; P.make (-1.) 0.; P.make 5. 0. |] in
  let g = G.of_edges 3 [ (0, 1) ] in
  check "greedy stuck" true (Core.Routing.greedy g pts ~src:0 ~dst:2 = None)

let test_variants_delivery_rates () =
  (* on dense random UDGs all directional heuristics deliver most
     pairs and produce valid paths *)
  let pts = instance 320L 100 60. in
  let g = Wireless.Udg.build pts ~radius:60. in
  let n = Array.length pts in
  List.iter
    (fun (name, route, threshold) ->
      let ok = ref 0 and total = ref 0 in
      for src = 0 to n - 1 do
        let dst = (src + (n / 3)) mod n in
        if src <> dst then begin
          incr total;
          match route g pts ~src ~dst with
          | Some p ->
            check (name ^ " path valid") true (Netgraph.Traversal.is_path g p);
            incr ok
          | None -> ()
        end
      done;
      check
        (Printf.sprintf "%s delivers enough (%d/%d)" name !ok !total)
        true
        (float_of_int !ok >= threshold *. float_of_int !total))
    [
      ("greedy", Core.Routing.greedy, 0.9);
      ("compass", Core.Routing.compass, 0.9);
    ]

let test_evaluate () =
  let pts = instance 315L 60 50. in
  let bb = Core.Backbone.build pts ~radius:50. in
  let rng = Wireless.Rand.create 5L in
  let ev =
    Core.Routing.evaluate
      ~router:(fun ~src ~dst ->
        Core.Routing.hierarchical bb.Core.Backbone.snap ~src ~dst)
      ~base:bb.Core.Backbone.udg pts ~pairs:40 rng
  in
  Alcotest.(check int) "all pairs sampled" 40 ev.Core.Routing.pairs;
  Alcotest.(check int) "all delivered" 40 ev.Core.Routing.delivered;
  check "stretch sane" true
    (ev.Core.Routing.avg_length_stretch >= 1.
    && ev.Core.Routing.avg_length_stretch < 10.)

let test_evaluate_tiny () =
  (* no pair to draw: zero evaluation, not a [Rand.int] bound error *)
  let zero =
    {
      R.pairs = 0;
      delivered = 0;
      avg_length_stretch = 0.;
      avg_hop_stretch = 0.;
    }
  in
  List.iter
    (fun (name, pts) ->
      let g = G.of_edges (Array.length pts) [] in
      let ev =
        R.evaluate
          ~router:(fun ~src ~dst:_ -> Some [ src ])
          ~base:g pts ~pairs:3 (Wireless.Rand.create 1L)
      in
      check name true (ev = zero))
    [ ("empty view", [||]); ("one node", [| P.make 0. 0. |]) ]

(* Uniform endpoint contract across all three routers and the
   hierarchical one: src = dst is the trivial delivery [Some [src]],
   any out-of-range node id is a clean [None]. *)
let test_endpoint_contract () =
  let pts = instance 55L 40 60. in
  let g = Wireless.Udg.build pts ~radius:60. in
  let bb = Core.Backbone.build pts ~radius:60. in
  let n = Array.length pts in
  List.iter
    (fun (name, router) ->
      (match router ~src:7 ~dst:7 with
      | Some p ->
        Alcotest.(check (list int)) (name ^ ": src = dst") [ 7 ] p
      | None -> Alcotest.fail (name ^ ": src = dst must deliver trivially"));
      check (name ^ ": src out of range") true (router ~src:n ~dst:0 = None);
      check (name ^ ": negative src") true (router ~src:(-1) ~dst:0 = None);
      check (name ^ ": dst out of range") true
        (router ~src:0 ~dst:(n + 3) = None);
      check (name ^ ": negative dst") true (router ~src:0 ~dst:(-2) = None);
      (* src = dst wins over range checks only when in range *)
      check (name ^ ": src = dst out of range") true
        (router ~src:n ~dst:n = None);
      check (name ^ ": src = dst negative") true
        (router ~src:(-1) ~dst:(-1) = None))
    [
      ("greedy", fun ~src ~dst -> R.greedy g pts ~src ~dst);
      ("compass", fun ~src ~dst -> R.compass g pts ~src ~dst);
      ("gfg", fun ~src ~dst -> R.gfg g pts ~src ~dst);
      ("hierarchical", fun ~src ~dst -> R.hierarchical bb.Core.Backbone.snap ~src ~dst);
    ]

(* Routes do not depend on the entry point: on random (possibly
   disconnected) UDGs and their PLDel, every router answers the same
   through the list wrapper and through the [_into] kernel with one
   scratch shared across all queries (its stamped marks and path
   buffer carry nothing between routes).  The fold of the oracle
   automaton is [gfg]. *)

(* The oracle's route under [gfg]'s step budget, and the number of
   decisions it made; [src = dst] is delivered before any decision,
   as in [gfg] and [Packetsim.gpsr]. *)
let gfg_fold v pts ~src ~dst =
  let module O = Gfg_oracle in
  let rec walk u header budget acc k =
    if budget <= 0 then (None, k)
    else
      match O.gfg_step v pts ~dst u header with
      | O.Deliver -> (Some (List.rev (u :: acc)), k + 1)
      | O.Drop -> (None, k + 1)
      | O.Forward (w, header') ->
        walk w header' (budget - 1) (u :: acc) (k + 1)
  in
  if src = dst then (Some [ src ], 0)
  else walk src O.Greedy ((4 * G.edge_count v) + 16) [] 0

let routers =
  [
    ("greedy", R.greedy, R.greedy_into);
    ("compass", R.compass, R.compass_into);
    ("gfg", R.gfg, R.gfg_into);
  ]

(* A random deployment (possibly disconnected): its points, the UDG
   and its PLDel, and a query stream drawn after them. *)
let random_deployment (seed, n, radius) =
  let rng = Wireless.Rand.create (Int64.of_int seed) in
  let pts = Wireless.Deploy.uniform rng ~n ~side:200. in
  let udg = Wireless.Udg.build pts ~radius in
  let pldel = (Tgraph.ldel_build udg pts ~radius).Tgraph.planar in
  (pts, udg, pldel, Wireless.Rand.split rng)

let arb_deployment =
  QCheck.make
    ~print:(fun (seed, n, radius) ->
      Printf.sprintf "seed %d, n %d, radius %.1f" seed n radius)
    QCheck.Gen.(
      triple (int_bound 1_000_000) (int_range 2 60) (float_range 15. 70.))

let representation_agrees instance =
  let pts, udg, pldel, queries = random_deployment instance in
  let n = Array.length pts in
  let shared = R.Scratch.create () in
  List.for_all
    (fun g ->
      List.for_all
        (fun _ ->
          let src = Wireless.Rand.int queries n
          and dst = Wireless.Rand.int queries n in
          List.for_all
            (fun (name, route, into) ->
              let via_list = route g pts ~src ~dst in
              let hops = into shared g pts ~src ~dst in
              let via_into =
                if hops < 0 then None
                else begin
                  if R.Scratch.path_len shared <> hops + 1 then
                    QCheck.Test.fail_reportf "%s: hop count %d, path of %d"
                      name hops (R.Scratch.path_len shared);
                  Some (R.Scratch.path_list shared)
                end
              in
              via_list = via_into
              && (name <> "gfg" || via_list = fst (gfg_fold g pts ~src ~dst))
              || QCheck.Test.fail_reportf "%s: %d -> %d disagrees" name src
                   dst)
            routers)
        (List.init 200 Fun.id))
    [ udg; pldel ]

let prop_representation_independent =
  QCheck.Test.make ~name:"routes independent of representation" ~count:25
    arb_deployment representation_agrees

let suites =
  [
    ( "core.routing",
      [
        Alcotest.test_case "greedy straight line" `Quick
          test_greedy_straight_line;
        Alcotest.test_case "greedy local minimum + gfg recovery" `Quick
          test_greedy_local_minimum;
        Alcotest.test_case "gfg delivery guarantee" `Slow
          test_gfg_delivery_guarantee;
        Alcotest.test_case "gfg on disconnected" `Quick
          test_gfg_disconnected_returns_none;
        Alcotest.test_case "hierarchical delivery" `Slow
          test_hierarchical_delivery;
        Alcotest.test_case "hierarchical adjacent = direct" `Quick
          test_hierarchical_adjacent_direct;
        Alcotest.test_case "hierarchical uses UDG links" `Quick
          test_hierarchical_path_edges_exist;
        Alcotest.test_case "hierarchical kernel = list wrapper" `Quick
          test_hierarchical_kernel_is_wrapper;
        Alcotest.test_case "drop reasons" `Quick test_drop_reasons;
        Alcotest.test_case "variants on a line" `Quick test_variants_on_line;
        Alcotest.test_case "variants choose differently" `Quick
          test_variants_choose_differently;
        Alcotest.test_case "variants fail without progress" `Quick
          test_variants_fail_without_progress;
        Alcotest.test_case "variants delivery rates" `Quick
          test_variants_delivery_rates;
        Alcotest.test_case "evaluate" `Quick test_evaluate;
        Alcotest.test_case "evaluate on n < 2" `Quick test_evaluate_tiny;
        Alcotest.test_case "endpoint contract (src=dst, out of range)" `Quick
          test_endpoint_contract;
        QCheck_alcotest.to_alcotest prop_representation_independent;
      ] );
  ]

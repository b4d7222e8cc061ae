(* Sensor network data gathering — the introduction's motivating
   scenario: environmental sensors periodically report to one static
   sink, and the backbone carries the traffic.

     dune exec examples/sensor_sink.exe

   Every sensor sends one report per epoch to the sink via
   dominating-set-based routing over the planar backbone.  We account
   for energy with the paper's power-attenuation model (transmitting
   over distance d costs d^beta) and compare against direct routing on
   the UDG shortest path, then simulate battery drain to see how the
   backbone concentrates load on dominators — the reason rotating the
   clusterhead role matters in practice. *)

let beta = 3. (* path-loss exponent, paper: 2 <= beta <= 5 *)

let link_energy points u v = Geometry.Point.dist points.(u) points.(v) ** beta

let path_energy points p =
  let rec go acc = function
    | u :: (v :: _ as rest) -> go (acc +. link_energy points u v) rest
    | [ _ ] | [] -> acc
  in
  go 0. p

let () =
  let rng = Wireless.Rand.create 2024L in
  let points, _ =
    Wireless.Deploy.connected_uniform rng ~n:120 ~side:220. ~radius:60.
      ~max_attempts:1000
  in
  let n = Array.length points in
  (* the sink is the node closest to the region's corner (a gateway) *)
  let sink =
    let best = ref 0 in
    Array.iteri
      (fun i (p : Geometry.Point.t) ->
        let (q : Geometry.Point.t) = points.(!best) in
        if p.x +. p.y < q.x +. q.y then best := i)
      points;
    !best
  in
  let bb =
    Core.Backbone.run
      { Core.Backbone.Config.default with Core.Backbone.Config.radius = 60. }
      points
  in
  let udg = bb.Core.Backbone.snap.Core.Shard.udg in
  Printf.printf "%d sensors, sink = node %d\n\n" n sink;

  (* one epoch: every sensor reports once *)
  let routes =
    List.filter_map
      (fun src ->
        if src = sink then None
        else Core.Routing.hierarchical bb.Core.Backbone.snap ~src ~dst:sink)
      (List.init n Fun.id)
  in
  Printf.printf "epoch delivery: %d/%d reports reached the sink\n"
    (List.length routes) (n - 1);

  let backbone_energy =
    List.fold_left (fun acc p -> acc +. path_energy points p) 0. routes
  in
  let optimal_energy =
    (* minimum-energy routing = shortest paths under the d^beta cost;
       approximate with Euclidean shortest paths on the UDG, whose
       energy we then price with the same model *)
    let total = ref 0. in
    for src = 0 to n - 1 do
      if src <> sink then
        match Netgraph.Traversal.dijkstra_path udg points src sink with
        | Some p -> total := !total +. path_energy points p
        | None -> ()
    done;
    !total
  in
  Printf.printf "energy per epoch: backbone %.3e vs UDG shortest-path %.3e (x%.2f)\n"
    backbone_energy optimal_energy
    (backbone_energy /. optimal_energy);

  (* battery simulation: who burns out first? *)
  let battery = Array.make n 0. in
  List.iter
    (fun p ->
      let rec charge = function
        | u :: (v :: _ as rest) ->
          battery.(u) <- battery.(u) +. link_energy points u v;
          charge rest
        | [ _ ] | [] -> ()
      in
      charge p)
    routes;
  let hottest = ref 0 in
  Array.iteri (fun i e -> if e > battery.(!hottest) then hottest := i) battery;
  let roles = bb.Core.Backbone.snap.Core.Shard.roles in
  let role i =
    if i = sink then "sink"
    else if roles.(i) = Core.Mis.Dominator then "dominator"
    else if bb.Core.Backbone.snap.Core.Shard.backbone.(i) then "connector"
    else "dominatee"
  in
  Printf.printf "hottest node: %d (%s), %.2fx the average transmit energy\n"
    !hottest (role !hottest)
    (battery.(!hottest)
    /. (Array.fold_left ( +. ) 0. battery /. float_of_int n));

  (* load split by role: the backbone carries almost everything *)
  let by_role = Hashtbl.create 4 in
  Array.iteri
    (fun i e ->
      let r = role i in
      Hashtbl.replace by_role r (e +. Option.value ~default:0. (Hashtbl.find_opt by_role r)))
    battery;
  Printf.printf "\ntransmit energy by role:\n";
  List.iter
    (fun r ->
      match Hashtbl.find_opt by_role r with
      | Some e -> Printf.printf "  %-10s %8.1f%%\n" r (100. *. e /. (backbone_energy +. 1e-9))
      | None -> ())
    [ "dominator"; "connector"; "dominatee"; "sink" ];

  (* lifetime: with finite batteries, rotating the clusterhead role
     (energy-aware reclustering) keeps the field alive longer *)
  Printf.printf "\nlifetime with finite batteries (100 epochs):\n";
  Printf.printf "  %-18s %12s %7s %9s\n" "policy" "first death" "deaths"
    "delivery";
  List.iter
    (fun (name, policy) ->
      let r =
        Core.Energy.run points ~radius:60. ~sink ~policy ~epochs:100
          ~battery:2e8 ~beta
      in
      Printf.printf "  %-18s %12s %7d %9.3f\n" name
        (match r.Core.Energy.first_death with
        | Some e -> string_of_int e
        | None -> "-")
        (List.length r.Core.Energy.deaths)
        (Core.Energy.delivery_ratio r))
    [
      ("static", Core.Energy.Static);
      ("rotate every 5", Core.Energy.Energy_aware 5);
    ]

(* Mobility: maintaining the backbone while nodes move.

     dune exec examples/mobility.exe

   The paper's position: the logical backbone remains usable while
   none of its links stretch out of range, and because construction
   costs O(1) messages per node, refreshing it periodically is cheap.
   This demo drives a random-waypoint run and, whenever the backbone
   breaks, repairs it two ways:

     - rebuild:  re-run the paper's smallest-ID construction from
                 scratch;
     - refresh:  stability-first reclustering (Core.Maintenance) —
                 incumbent dominators keep their role unless movement
                 invalidated it.

   Both give identical guarantees; refresh flaps far fewer roles,
   which is what matters operationally (clusterhead hand-offs are the
   expensive part for higher layers). *)

let () =
  let radius = 60. and side = 200. in
  let rng = Wireless.Rand.create 555L in
  let init, _ =
    Wireless.Deploy.connected_uniform rng ~n:100 ~side ~radius
      ~max_attempts:1000
  in
  let n = Array.length init in

  let run name policy =
    let model =
      Wireless.Mobility.random_waypoint
        (Wireless.Rand.create 42L)
        ~side ~min_speed:2. ~max_speed:5. ~init
    in
    let bb =
      ref
        (Core.Backbone.run
           { Core.Backbone.Config.default with Core.Backbone.Config.radius }
           (Array.copy init))
    in
    let repairs = ref 0
    and churn = ref 0
    and edge_churn = ref 0
    and msgs = ref 0 in
    for _step = 1 to 30 do
      Wireless.Mobility.step model;
      let positions = Array.copy (Wireless.Mobility.positions model) in
      let broken = Core.Maintenance.needs_refresh !bb positions in
      if broken > 0 then begin
        let udg = Wireless.Udg.build positions ~radius in
        if Netgraph.Csr.is_connected udg then begin
          let next, stats = policy !bb positions in
          incr repairs;
          churn := !churn + stats.Core.Maintenance.role_changes;
          edge_churn := !edge_churn + stats.Core.Maintenance.edge_changes;
          (* the paper's cost model: count the distributed messages a
             rebuild would take at these positions *)
          let pr = Core.Protocol.run positions ~radius in
          msgs :=
            !msgs
            + Distsim.Engine.total_sent (Core.Protocol.ldel_stats pr);
          bb := next
        end
      end
    done;
    Printf.printf "%-8s %8d %11d %11d %13.1f\n" name !repairs !churn
      !edge_churn
      (if !repairs = 0 then 0.
       else float_of_int !msgs /. float_of_int (!repairs * n))
  in
  Printf.printf "%d nodes, radius %g, 30 steps of random waypoint (2-5 u/step)\n\n"
    n radius;
  Printf.printf "%-8s %8s %11s %11s %13s\n" "policy" "repairs" "role churn"
    "edge churn" "msgs/node";
  run "rebuild" Core.Maintenance.rebuild;
  run "refresh" Core.Maintenance.refresh;
  Printf.printf
    "\nrefresh = stability-first reclustering: same guarantees, fewer\n\
     clusterhead hand-offs.  Message cost per repair stays O(1) per node\n\
     regardless of policy, as the paper promises.\n"

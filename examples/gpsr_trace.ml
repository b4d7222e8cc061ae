(* GPSR trace: watch one packet cross the planar backbone, hop by hop,
   with its greedy/perimeter mode switches.

     dune exec examples/gpsr_trace.exe

   The forwarding automaton (Core.Routing.gfg_step) is the same one
   the packet-level simulator runs; here we drive it manually and
   narrate each decision.  A sparse, hole-y deployment is chosen so
   the packet actually needs perimeter mode. *)

let deployment_with_hole seed radius =
  (* uniform points minus a central disk, so greedy routes hit local
     minima; redraw until connected *)
  let rec attempt s =
    let rng = Wireless.Rand.create (Int64.of_int s) in
    let acc = ref [] in
    while List.length !acc < 90 do
      let p =
        Geometry.Point.make
          (Wireless.Rand.float rng 260.)
          (Wireless.Rand.float rng 260.)
      in
      if Geometry.Point.dist p (Geometry.Point.make 130. 130.) > 62. then
        acc := p :: !acc
    done;
    let points = Array.of_list !acc in
    if Netgraph.Components.is_connected (Wireless.Udg.build points ~radius)
    then points
    else attempt (s + 1)
  in
  attempt seed

let () =
  let radius = 45. in
  let points = deployment_with_hole 31 radius in
  begin
    let bb =
      Core.Backbone.run
        { Core.Backbone.Config.default with Core.Backbone.Config.radius }
        points
    in
    let planar = (Core.Backbone.ldel_full bb).Core.Ldel.planar in
    let planar_v = Netgraph.View.of_graph planar in
    (* pick a pair where plain greedy actually gets stuck, so the
       trace shows the perimeter recovery; fall back to the farthest
       pair if none exists on this instance *)
    let n = Array.length points in
    let pick () =
      let found = ref None in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d && !found = None
             && Core.Routing.greedy planar_v points ~src:s ~dst:d = None
          then found := Some (s, d)
        done
      done;
      match !found with
      | Some p -> p
      | None -> (0, n - 1)
    in
    let src, dst = pick () in
    Printf.printf "routing %d -> %d across the hole on PLDel(V) (%d edges)\n\n"
      src dst
      (Netgraph.Graph.edge_count planar);
    let mode_name = function
      | Core.Routing.Greedy -> "greedy"
      | Core.Routing.Perimeter (_, _) -> "perimeter"
    in
    let rec walk u header steps =
      if steps > 200 then print_endline "... step budget exceeded"
      else
        match Core.Routing.gfg_step planar_v points ~dst u header with
        | Core.Routing.Deliver -> Printf.printf "%4d. node %d: DELIVERED\n" steps u
        | Core.Routing.Drop -> Printf.printf "%4d. node %d: dropped\n" steps u
        | Core.Routing.Forward (v, header') ->
          let switch =
            match (header, header') with
            | Core.Routing.Greedy, Core.Routing.Perimeter _ ->
              "  << entering perimeter mode"
            | Core.Routing.Perimeter _, Core.Routing.Greedy ->
              "  >> back to greedy"
            | _ -> ""
          in
          Printf.printf "%4d. node %-3d --%s--> node %-3d (%.1f to go)%s\n"
            steps u (mode_name header') v
            (Geometry.Point.dist points.(v) points.(dst))
            switch;
          walk v header' (steps + 1)
    in
    walk src Core.Routing.Greedy 1;
    (* compare against what plain greedy would have done *)
    print_newline ();
    match Core.Routing.greedy planar_v points ~src ~dst with
    | Some p ->
      Printf.printf "plain greedy also made it, in %d hops\n"
        (Netgraph.Traversal.path_hops p)
    | None ->
      print_endline
        "plain greedy would have dropped this packet at a local minimum"
  end

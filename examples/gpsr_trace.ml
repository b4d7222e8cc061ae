(* GPSR trace: watch one packet cross the planar backbone, hop by hop,
   with its greedy/perimeter mode switches.

     dune exec examples/gpsr_trace.exe

   Each decision is Core.Routing.gfg_hop, the per-hop step that
   Routing.gfg walks and the packet-level simulator runs at every
   holder; here we drive it manually over its packet header and
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
    if Netgraph.Csr.is_connected (Wireless.Udg.build points ~radius)
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
    let planar = Core.Backbone.ldel_full bb in
    (* pick a pair where plain greedy actually gets stuck, so the
       trace shows the perimeter recovery; fall back to the farthest
       pair if none exists on this instance *)
    let n = Array.length points in
    let pick () =
      let found = ref None in
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d && !found = None
             && Core.Routing.greedy planar points ~src:s ~dst:d = None
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
      (Netgraph.Csr.edge_count planar);
    let sc = Core.Routing.Scratch.create () in
    let mode_name (h : Core.Routing.header) =
      if h.perimeter then "perimeter" else "greedy"
    in
    let rec walk u (header : Core.Routing.header) steps =
      if steps > 200 then print_endline "... step budget exceeded"
      else
        let v = Core.Routing.gfg_hop sc planar points ~dst u header in
        if v < 0 then
          if u = dst then Printf.printf "%4d. node %d: DELIVERED\n" steps u
          else Printf.printf "%4d. node %d: dropped\n" steps u
        else begin
          let header' = Core.Routing.gfg_header sc in
          let switch =
            match (header.perimeter, header'.perimeter) with
            | false, true -> "  << entering perimeter mode"
            | true, false -> "  >> back to greedy"
            | _ -> ""
          in
          Printf.printf "%4d. node %-3d --%s--> node %-3d (%.1f to go)%s\n"
            steps u (mode_name header') v
            (Geometry.Point.dist points.(v) points.(dst))
            switch;
          walk v header' (steps + 1)
        end
    in
    walk src Core.Routing.greedy_header 1;
    (* compare against what plain greedy would have done *)
    print_newline ();
    match Core.Routing.greedy planar points ~src ~dst with
    | Some p ->
      Printf.printf "plain greedy also made it, in %d hops\n"
        (Netgraph.Traversal.path_hops p)
    | None ->
      print_endline
        "plain greedy would have dropped this packet at a local minimum"
  end

module G = Netgraph.Graph

type t = {
  roles : Mis.role array;
  connectors : Connectors.result;
  backbone : bool array;
  cds : G.t;
  cds' : G.t;
  icds : G.t;
  icds' : G.t;
}

let build udg roles (connectors : Connectors.result) =
  let n = G.node_count udg in
  let backbone =
    Array.init n (fun u ->
        roles.(u) = Mis.Dominator || connectors.Connectors.connector.(u))
  in
  let cds = G.of_edges n connectors.Connectors.cds_edges in
  let links =
    List.concat
      (List.init n (fun u ->
           if roles.(u) = Mis.Dominatee then
             List.map (fun d -> (u, d)) (Mis.dominators_of udg roles u)
           else []))
  in
  let dominatee_links g = G.union g (G.of_edges n links) in
  let cds' = dominatee_links cds in
  let icds = G.induced udg (fun u -> backbone.(u)) in
  let icds' = dominatee_links icds in
  { roles; connectors; backbone; cds; cds'; icds; icds' }

let of_udg ?priority udg =
  Obs.span "cds" (fun () ->
      let roles =
        Obs.span "mis" (fun () -> Mis.compute ?priority udg)
      in
      let connectors = Obs.span "connectors" (fun () -> Connectors.find udg roles) in
      Obs.span "assemble" (fun () -> build udg roles connectors))

let backbone_nodes t =
  let acc = ref [] in
  Array.iteri (fun u b -> if b then acc := u :: !acc) t.backbone;
  List.rev !acc

let dominator_of t udg u =
  if t.backbone.(u) then u
  else
    match Mis.dominators_of udg t.roles u with
    | d :: _ -> d
    | [] -> invalid_arg "Cds.dominator_of: node has no dominator"

module Csr = Netgraph.Csr
module P = Geometry.Point

type policy = Static | Energy_aware of int

type report = {
  first_death : int option;
  deaths : (int * int) list;
  epochs_run : int;
  attempted : int;
  delivered : int;
  spent : float array;
}

(* the structures one epoch routes on *)
type backbone = {
  udg : Csr.t;  (* the alive UDG *)
  roles : Mis.role array;
  backbone : bool array;
  cds : Netgraph.View.t;
}

let delivery_ratio r =
  if r.attempted = 0 then 1.
  else float_of_int r.delivered /. float_of_int r.attempted

let run points ~radius ~sink ~policy ~epochs ~battery ~beta =
  let n = Array.length points in
  if sink < 0 || sink >= n then invalid_arg "Energy.run: sink out of range";
  if epochs <= 0 || battery <= 0. || beta <= 0. then
    invalid_arg "Energy.run: non-positive parameter";
  let full_udg = Wireless.Udg.build_csr points ~radius in
  let remaining = Array.make n battery in
  let alive = Array.make n true in
  let spent = Array.make n 0. in
  let deaths = ref [] in
  let first_death = ref None in
  let attempted = ref 0 and delivered = ref 0 in

  (* rebuild the backbone over the alive UDG with the two stages the
     router reads, clustering and the connector elections; the
     priority realizes the rotation policy *)
  let rebuild () =
    let udg = Csr.filter full_udg (fun u v -> alive.(u) && alive.(v)) in
    let priority =
      match policy with
      | Static -> fun u -> if alive.(u) then 0 else 1
      | Energy_aware _ ->
        (* more remaining energy = more eligible; quantized so ties
           break by id deterministically *)
        fun u ->
          if not alive.(u) then max_int
          else int_of_float ((battery -. remaining.(u)) /. battery *. 1000.)
    in
    let roles = Mis.compute_csr ~priority udg in
    let conn = Connectors.find_csr udg roles in
    let backbone =
      Array.init n (fun u ->
          roles.(u) = Mis.Dominator || conn.Connectors.connector.(u))
    in
    { udg; roles; backbone; cds = Netgraph.View.of_csr conn.Connectors.cds }
  in
  let structure = ref (rebuild ()) in

  let route src =
    let { udg; roles; backbone; cds } = !structure in
    if src = sink then None
    else if Csr.mem_edge udg src sink then Some [ src; sink ]
    else begin
      (* dominating-set routing over the alive backbone: enter at the
         gateway, BFS over the CDS (hop-greedy suffices for energy
         accounting), exit at the sink's gateway *)
      let enter = Routing.gateway ~udg ~roles ~backbone src in
      let exit = Routing.gateway ~udg ~roles ~backbone sink in
      match Netgraph.Traversal.bfs_path_v cds enter exit with
      | None -> None
      | Some p ->
        let p = if enter = src then p else src :: p in
        let p = if exit = sink then p else p @ [ sink ] in
        Some p
    end
  in

  let charge epoch path =
    let rec go = function
      | u :: (v :: _ as rest) ->
        let cost = P.dist points.(u) points.(v) ** beta in
        remaining.(u) <- remaining.(u) -. cost;
        spent.(u) <- spent.(u) +. cost;
        if remaining.(u) <= 0. && alive.(u) && u <> sink then begin
          alive.(u) <- false;
          deaths := (epoch, u) :: !deaths;
          if !first_death = None then first_death := Some epoch
        end;
        go rest
      | [ _ ] | [] -> ()
    in
    go path
  in

  let epoch = ref 0 in
  let continue = ref true in
  while !continue && !epoch < epochs do
    incr epoch;
    let died_before = List.length !deaths in
    for src = 0 to n - 1 do
      if alive.(src) && src <> sink then begin
        incr attempted;
        match route src with
        | Some p
          when List.for_all (fun u -> alive.(u) || u = sink) p ->
          incr delivered;
          charge !epoch p
        | Some _ | None -> ()
      end
    done;
    let died_now = List.length !deaths > died_before in
    let rotate =
      match policy with
      | Static -> died_now
      | Energy_aware k -> died_now || !epoch mod k = 0
    in
    if rotate then structure := rebuild ();
    (* stop when the sink is isolated among alive nodes *)
    if Csr.degree !structure.udg sink = 0 then continue := false
  done;
  {
    first_death = !first_death;
    deaths = List.rev !deaths;
    epochs_run = !epoch;
    attempted = !attempted;
    delivered = !delivered;
    spent;
  }

module E = Distsim.Engine

let c_packets = Obs.counter "packetsim.packets"
let c_delivered = Obs.counter "packetsim.delivered"
let d_tx = Obs.dist "packetsim.transmissions"
let d_rounds = Obs.dist "packetsim.rounds"
let g_delivery_ratio = Obs.gauge "packetsim.delivery_ratio"

(* the counter {!Routing.gfg_into} charges per forwarding decision *)
let c_gfg_steps = Obs.counter "routing.gfg.steps"

type result = {
  delivered : bool;
  path : int list;
  transmissions : int;
  rounds : int;
}

(* The packet: destination, GFG header, the intended next hop (radio
   unicast = named broadcast), remaining TTL, and the trajectory for
   verification. *)
type packet = {
  dst : int;
  header : Routing.header;
  next_hop : int;
  ttl : int;
  trace : int list;  (* reversed *)
}

type node_state = {
  mutable ns_delivered : int list option;  (* the packet's path if it ended here *)
}

let run_one g points ~src ~dst ~use_perimeter =
  (* forwarding decisions read the destination off the packet itself,
     as a radio would; [run_one]'s [dst] only originates and collects.
     Both disciplines run the GFG automaton; plain greedy drops where
     GFG would enter perimeter mode, and only GPSR decisions count as
     GFG steps. *)
  let step ~dst u header =
    let d = Routing.gfg_step g points ~dst u header in
    if use_perimeter then begin
      Obs.incr c_gfg_steps;
      d
    end
    else
      match d with
      | Routing.Forward (_, Routing.Perimeter _) -> Routing.Drop
      | d -> d
  in
  let ttl0 = (4 * Netgraph.Csr.edge_count g) + 16 in
  let proto =
    {
      E.init = (fun _ _ -> { ns_delivered = None });
      E.on_round =
        (fun ctx st inbox ->
          let me = ctx.E.me in
          let handle (pkt : packet) =
            if pkt.next_hop = me && pkt.ttl > 0 then begin
              let trace = me :: pkt.trace in
              match step ~dst:pkt.dst me pkt.header with
              | Routing.Deliver -> st.ns_delivered <- Some (List.rev trace)
              | Routing.Drop -> ()
              | Routing.Forward (v, header') ->
                ctx.E.broadcast
                  { pkt with header = header'; next_hop = v;
                    ttl = pkt.ttl - 1; trace }
            end
          in
          if ctx.E.round = 0 && me = src then begin
            if src = dst then st.ns_delivered <- Some [ src ]
            else
              (* originate: the source makes the first forwarding
                 decision and transmits *)
              handle
                { dst; header = Routing.Greedy; next_hop = src; ttl = ttl0;
                  trace = [] }
          end;
          E.iter_inbox (fun _ _ pkt -> handle pkt) inbox;
          st);
    }
  in
  let states, stats = E.run ~classify:(fun _ -> "Data") g proto in
  Obs.incr c_packets;
  Obs.observe d_tx (float_of_int (E.total_sent stats));
  Obs.observe d_rounds (float_of_int stats.E.rounds);
  match states.(dst).ns_delivered with
  | Some path ->
    Obs.incr c_delivered;
    {
      delivered = true;
      path;
      transmissions = E.total_sent stats;
      rounds = stats.E.rounds;
    }
  | None ->
    {
      delivered = false;
      path = [];
      transmissions = E.total_sent stats;
      rounds = stats.E.rounds;
    }

let gpsr g points ~src ~dst =
  run_one g points ~src ~dst ~use_perimeter:true

let greedy g points ~src ~dst =
  run_one g points ~src ~dst ~use_perimeter:false

let many g points ~pairs rng ~router =
  Obs.span "packetsim.many" @@ fun () ->
  let n = Netgraph.Csr.node_count g in
  (* fewer than two nodes admit no src <> dst pair *)
  let pairs = if n < 2 then 0 else pairs in
  let delivered = ref 0 and tx = ref 0 and sent = ref 0 in
  while !sent < pairs do
    let src = Wireless.Rand.int rng n and dst = Wireless.Rand.int rng n in
    if src <> dst then begin
      incr sent;
      let r =
        run_one g points ~src ~dst ~use_perimeter:(router = `Gpsr)
      in
      if r.delivered then begin
        incr delivered;
        tx := !tx + r.transmissions
      end
    end
  done;
  if !Obs.on && pairs > 0 then
    Obs.set_gauge g_delivery_ratio
      (float_of_int !delivered /. float_of_int pairs);
  ( !delivered,
    pairs,
    if !delivered = 0 then 0. else float_of_int !tx /. float_of_int !delivered
  )

module G = Netgraph.Graph
module E = Distsim.Engine

type outcome = {
  reached : bool array;
  transmissions : int;
  rounds : int;
}

let c_transmissions = Obs.counter "broadcast.transmissions"

let coverage o =
  let n = Array.length o.reached in
  if n = 0 then 1.
  else
    float_of_int (Array.fold_left (fun a r -> if r then a + 1 else a) 0 o.reached)
    /. float_of_int n

(* One shared packet type: the payload is irrelevant, only the relay
   discipline differs. *)
type state = { mutable heard : bool; mutable relayed : bool }

let run_relay udg ~source ~should_relay =
  let proto =
    {
      E.init = (fun me _ -> { heard = me = source; relayed = false });
      E.on_round =
        (fun ctx st inbox ->
          let heard_from = List.map (fun d -> d.E.from) inbox in
          if heard_from <> [] then st.heard <- true;
          let is_source_start = ctx.E.round = 0 && ctx.E.me = source in
          if
            (is_source_start
            || (st.heard && not st.relayed && heard_from <> []))
            && (not st.relayed)
            && (is_source_start || should_relay ctx.E.me heard_from)
          then begin
            st.relayed <- true;
            ctx.E.broadcast ()
          end;
          st);
    }
  in
  let states, stats = E.run ~classify:(fun () -> "Packet") udg proto in
  Obs.add c_transmissions (E.total_sent stats);
  {
    reached = Array.map (fun st -> st.heard) states;
    transmissions = E.total_sent stats;
    rounds = stats.E.rounds;
  }

let flood udg ~source = run_relay udg ~source ~should_relay:(fun _ _ -> true)

let backbone_broadcast udg ~backbone ~source =
  run_relay udg ~source ~should_relay:(fun me _ -> backbone.(me))

let rng_relay udg points ~source =
  let rng_g = Wireless.Proximity.rng_graph udg points in
  run_relay udg ~source ~should_relay:(fun me heard_from ->
      (* relay only if some RNG neighbor has not (necessarily) heard
         the packet yet: it is not among the senders we heard *)
      List.exists
        (fun v -> not (List.mem v heard_from))
        (G.neighbors rng_g me))

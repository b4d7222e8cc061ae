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
   discipline differs.  [heard_at.(i)] is the last round the neighbor
   in row slot [i] was heard. *)
type state = {
  mutable heard : bool;
  mutable relayed : bool;
  heard_at : int array;
}

(* [should_relay me heard] decides for a node that has just heard the
   packet, [heard i] telling whether it heard the neighbor in its row
   slot [i] this round *)
let run_relay udg ~source ~should_relay =
  let proto =
    {
      E.init =
        (fun me row ->
          {
            heard = me = source;
            relayed = false;
            heard_at = Array.make (Array.length row) (-1);
          });
      E.on_round =
        (fun ctx st inbox ->
          let round = ctx.E.round in
          let heard_now =
            E.fold_inbox
              (fun _ i _ () ->
                st.heard_at.(i) <- round;
                true)
              false inbox
          in
          if heard_now then st.heard <- true;
          let is_source_start = ctx.E.round = 0 && ctx.E.me = source in
          if
            (is_source_start || (st.heard && not st.relayed && heard_now))
            && (not st.relayed)
            && (is_source_start
               || should_relay ctx.E.me (fun i -> st.heard_at.(i) = round))
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
  let module C = Netgraph.Csr in
  let rng_g = Wireless.Proximity.rng_graph udg points in
  let offsets = C.offsets udg and targets = C.targets udg in
  run_relay udg ~source ~should_relay:(fun me heard ->
      (* relay only if some RNG neighbor has not (necessarily) heard
         the packet yet: it is not among the senders we heard *)
      let first = offsets.(me) in
      let rec unheard_rng a =
        a < offsets.(me + 1)
        && (((not (heard (a - first))) && C.mem_edge rng_g me targets.(a))
           || unheard_rng (a + 1))
      in
      unheard_rng first)

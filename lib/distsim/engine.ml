(* The per-run [stats] record remains the protocol-facing return value
   (figures 10/12 need per-node counts per phase), but every run also
   settles its tallies into the global obs counters below, so message
   work is reported through the same channel as the predicate and
   Delaunay counters.  The flush happens once per run — nothing is
   charged per message. *)
let c_runs = Obs.counter "distsim.runs"
let c_rounds = Obs.counter "distsim.rounds"
let c_messages = Obs.counter "distsim.messages"
let d_sent = Obs.dist "distsim.sent_per_node"
let d_round_messages = Obs.dist "distsim.round_messages"
let g_last_round_messages = Obs.gauge "distsim.last_round_messages"

let flush_stats_to_obs ~rounds ~sent ~by_kind =
  if !Obs.on then begin
    Obs.incr c_runs;
    Obs.add c_rounds rounds;
    Obs.add c_messages (Array.fold_left ( + ) 0 sent);
    Array.iter (fun s -> Obs.observe d_sent (float_of_int s)) sent;
    List.iter
      (fun (k, c) -> Obs.add (Obs.counter ("distsim.msg." ^ k)) c)
      by_kind
  end

type 'msg delivery = { from : int; msg : 'msg }

type 'msg context = {
  me : int;
  round : int;
  neighbors : int list;
  broadcast : 'msg -> unit;
}

type ('state, 'msg) protocol = {
  init : int -> int list -> 'state;
  on_round : 'msg context -> 'state -> 'msg delivery list -> 'state;
}

type stats = {
  rounds : int;
  sent : int array;
  by_kind : (string * int) list;
}

let max_sent s = Array.fold_left max 0 s.sent

let avg_sent s =
  let n = Array.length s.sent in
  if n = 0 then 0.
  else float_of_int (Array.fold_left ( + ) 0 s.sent) /. float_of_int n

let total_sent s = Array.fold_left ( + ) 0 s.sent

let merge s1 s2 =
  if Array.length s1.sent <> Array.length s2.sent then
    invalid_arg "Engine.merge: node count mismatch";
  let tbl = Hashtbl.create 16 in
  List.iter (fun (k, c) -> Hashtbl.replace tbl k c) s1.by_kind;
  List.iter
    (fun (k, c) ->
      Hashtbl.replace tbl k (c + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
    s2.by_kind;
  {
    rounds = s1.rounds + s2.rounds;
    sent = Array.init (Array.length s1.sent) (fun i -> s1.sent.(i) + s2.sent.(i));
    by_kind =
      List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl []);
  }

let run ?max_rounds ?(min_rounds = 0) ~classify graph protocol =
  let n = Netgraph.Graph.node_count graph in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 16) in
  let neighbors = Array.init n (Netgraph.Graph.neighbors graph) in
  let states = Array.init n (fun i -> protocol.init i neighbors.(i)) in
  let sent = Array.make n 0 in
  let kinds = Hashtbl.create 16 in
  let stamp = Stamp.create n in
  (* Messages in flight: those broadcast this round, delivered next
     round, newest first.  Each carries the one delivery record all of
     its receivers share (the record is immutable). *)
  let in_flight = ref [] (* (lam, sseq, kind, delivery) *) in
  let rounds = ref 0 in
  let quiescent = ref false in
  while not !quiescent do
    if !rounds >= max_rounds then
      failwith
        (Printf.sprintf "Engine.run: no quiescence after %d rounds" max_rounds);
    (* Lamport stamps (and trace events) per delivery, in send order *)
    List.iter
      (fun (lam, sseq, k, d) ->
        List.iter
          (fun v ->
            Stamp.deliver stamp ~round:!rounds ~time:0. ~kind:k ~src:d.from
              ~dst:v ~sent_lam:lam ~sseq)
          neighbors.(d.from))
      (List.rev !in_flight);
    (* prepending newest first leaves every inbox in send order, which
       is sender id order *)
    let inboxes = Array.make n [] in
    List.iter
      (fun (_, _, _, d) ->
        List.iter (fun v -> inboxes.(v) <- d :: inboxes.(v)) neighbors.(d.from))
      !in_flight;
    in_flight := [];
    let sent_this_round = ref false in
    for u = 0 to n - 1 do
      let ctx =
        {
          me = u;
          round = !rounds;
          neighbors = neighbors.(u);
          broadcast =
            (fun m ->
              sent.(u) <- sent.(u) + 1;
              sent_this_round := true;
              let k = classify m in
              Hashtbl.replace kinds k
                (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k));
              let lam, sseq =
                Stamp.send stamp ~round:!rounds ~time:0. ~kind:k ~src:u
              in
              in_flight := (lam, sseq, k, { from = u; msg = m }) :: !in_flight);
        }
      in
      states.(u) <- protocol.on_round ctx states.(u) inboxes.(u)
    done;
    if !Obs.on then begin
      let m = List.length !in_flight in
      Obs.observe d_round_messages (float_of_int m);
      Obs.set_gauge g_last_round_messages (float_of_int m)
    end;
    incr rounds;
    if (not !sent_this_round) && !rounds >= min_rounds then quiescent := true
  done;
  let by_kind =
    List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) kinds [])
  in
  let stats = { rounds = !rounds; sent; by_kind } in
  flush_stats_to_obs ~rounds:stats.rounds ~sent ~by_kind;
  (states, stats)

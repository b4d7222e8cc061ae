(* The synchronous message-passing engine: delivery, rounds,
   counters, quiescence, and a property against the list-based engine
   it replaced. *)

module G = Netgraph.Csr
module E = Distsim.Engine

(* the engine runs on CSR snapshots; the tests draw graphs as edge
   lists *)
let csr n edges = (G.of_edges n edges)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* an inbox as [(slot, from, msg)] triples, in delivery order *)
let inbox_list inbox =
  List.rev (E.fold_inbox (fun acc slot from msg -> (slot, from, msg) :: acc) [] inbox)

(* Protocol: round 0, every node broadcasts its id; each node records
   what it hears.  Tests basic delivery to 1-hop neighbors. *)
let test_hello_delivery () =
  let g = csr 4 [ (0, 1); (1, 2); (2, 3) ] in
  let proto =
    {
      E.init = (fun _ _ -> []);
      E.on_round =
        (fun ctx st inbox ->
          if ctx.E.round = 0 then ctx.E.broadcast ctx.E.me;
          st @ List.map (fun (_, _, m) -> m) (inbox_list inbox));
    }
  in
  let states, stats = E.run ~classify:(fun _ -> "id") g proto in
  Alcotest.(check (list int)) "node 1 hears 0 and 2" [ 0; 2 ] states.(1);
  Alcotest.(check (list int)) "node 0 hears 1" [ 1 ] states.(0);
  checki "every node sent once" 4 (E.total_sent stats);
  checki "rounds: send, deliver, quiesce" 2 stats.E.rounds

let test_no_messages_quiesces_immediately () =
  let g = csr 3 [ (0, 1); (1, 2) ] in
  let proto =
    { E.init = (fun _ _ -> ()); E.on_round = (fun _ st _ -> st) }
  in
  let _, stats = E.run ~classify:(fun _ -> "x") g proto in
  checki "one silent round" 1 stats.E.rounds;
  checki "nothing sent" 0 (E.total_sent stats)

(* Flood: node 0 starts a token; every node forwards it once.  The
   number of rounds equals the eccentricity of node 0 plus the final
   silent round; everyone ends up with the token. *)
let test_flood () =
  let n = 6 in
  let g = csr n (List.init (n - 1) (fun i -> (i, i + 1))) in
  let proto =
    {
      E.init = (fun me _ -> me = 0);
      (* has token? node 0 starts with it *)
      E.on_round =
        (fun ctx has inbox ->
          let receives = E.fold_inbox (fun _ _ _ () -> true) false inbox in
          if (ctx.E.round = 0 && ctx.E.me = 0) || ((not has) && receives) then begin
            ctx.E.broadcast ();
            true
          end
          else has || receives);
    }
  in
  let states, stats = E.run ~classify:(fun () -> "token") g proto in
  check "all reached" true (Array.for_all Fun.id states);
  checki "each forwards once" n (E.total_sent stats);
  (* forwarding proceeds one hop per round: n send rounds + 1 silent *)
  checki "rounds" (n + 1) stats.E.rounds

let test_per_kind_counters () =
  let g = csr 2 [ (0, 1) ] in
  let proto =
    {
      E.init = (fun _ _ -> ());
      E.on_round =
        (fun ctx st _ ->
          if ctx.E.round = 0 then begin
            ctx.E.broadcast `A;
            ctx.E.broadcast `A;
            ctx.E.broadcast `B
          end;
          st);
    }
  in
  let _, stats =
    E.run ~classify:(function `A -> "a" | `B -> "b") g proto
  in
  Alcotest.(check (list (pair string int)))
    "kinds" [ ("a", 4); ("b", 2) ] stats.E.by_kind;
  checki "per node" 3 stats.E.sent.(0);
  checki "max" 3 (E.max_sent stats);
  Alcotest.(check (float 1e-9)) "avg" 3. (E.avg_sent stats)

let test_inbox_sender_order () =
  (* all three neighbors broadcast in round 0; inbox arrives sorted
     by sender id because nodes are stepped in id order *)
  let g = csr 4 [ (3, 0); (3, 1); (3, 2) ] in
  let proto =
    {
      E.init = (fun _ _ -> []);
      E.on_round =
        (fun ctx st inbox ->
          if ctx.E.round = 0 && ctx.E.me < 3 then ctx.E.broadcast ctx.E.me;
          st @ List.map (fun (_, from, _) -> from) (inbox_list inbox));
    }
  in
  let states, _ = E.run ~classify:string_of_int g proto in
  Alcotest.(check (list int)) "ordered inbox" [ 0; 1; 2 ] states.(3)

let test_runaway_protocol_fails () =
  let g = csr 2 [ (0, 1) ] in
  let proto =
    {
      E.init = (fun _ _ -> ());
      E.on_round =
        (fun ctx st _ ->
          ctx.E.broadcast ();
          st);
    }
  in
  check "raises" true
    (try
       ignore (E.run ~max_rounds:10 ~classify:(fun () -> "spam") g proto);
       false
     with Failure _ -> true)

let test_merge_stats () =
  let g = csr 2 [ (0, 1) ] in
  let once tag =
    {
      E.init = (fun _ _ -> ());
      E.on_round =
        (fun ctx st _ ->
          if ctx.E.round = 0 && ctx.E.me = 0 then ctx.E.broadcast tag;
          st);
    }
  in
  let _, s1 = E.run ~classify:Fun.id g (once "x") in
  let _, s2 = E.run ~classify:Fun.id g (once "y") in
  let m = E.merge s1 s2 in
  checki "total" 2 (E.total_sent m);
  checki "node 0" 2 m.E.sent.(0);
  Alcotest.(check (list (pair string int)))
    "kinds merged" [ ("x", 1); ("y", 1) ] m.E.by_kind;
  check "mismatch raises" true
    (try
       let g3 = csr 3 [] in
       let _, s3 = E.run ~classify:Fun.id g3 (once "z") in
       ignore (E.merge s1 s3);
       false
     with Invalid_argument _ -> true)

let test_isolated_nodes () =
  (* isolated nodes run but their broadcasts reach nobody *)
  let g = csr 3 [] in
  let proto =
    {
      E.init = (fun _ _ -> 0);
      E.on_round =
        (fun ctx st inbox ->
          if ctx.E.round = 0 then ctx.E.broadcast ();
          st + List.length (inbox_list inbox));
    }
  in
  let states, stats = E.run ~classify:(fun () -> "ping") g proto in
  check "nothing delivered" true (Array.for_all (fun s -> s = 0) states);
  checki "all sent" 3 (E.total_sent stats)

(* ------------------------------------------------------------------ *)
(* Oracle: the list-based engine the CSR engine replaced                *)
(* ------------------------------------------------------------------ *)

(* The pre-CSR [Engine.run], kept as a reference: neighbor lists from
   the graph, every inbox scattered up front from the in-flight list
   as a list of delivery records, Lamport stamps through the same
   [Stamp] helper on every run.  It has no obs flush; the property
   below compares what the two return and trace. *)
module Reference = struct
  type 'msg delivery = { from : int; msg : 'msg }

  type 'msg context = {
    me : int;
    round : int;
    neighbors : int list;
    broadcast : 'msg -> unit;
  }

  let run ?max_rounds ?(min_rounds = 0) ~classify graph ~init ~on_round =
    let n = G.node_count graph in
    let max_rounds = Option.value max_rounds ~default:((4 * n) + 16) in
    let neighbors = Array.init n (G.neighbors graph) in
    let states = Array.init n (fun i -> init i neighbors.(i)) in
    let sent = Array.make n 0 in
    let kinds = Hashtbl.create 16 in
    let stamp = Distsim.Stamp.create n in
    let in_flight = ref [] and rounds = ref 0 and quiescent = ref false in
    while not !quiescent do
      if !rounds >= max_rounds then failwith "Reference.run: no quiescence";
      List.iter
        (fun (lam, sseq, k, d) ->
          List.iter
            (fun v ->
              Distsim.Stamp.deliver stamp ~round:!rounds ~time:0. ~kind:k
                ~src:d.from ~dst:v ~sent_lam:lam ~sseq)
            neighbors.(d.from))
        (List.rev !in_flight);
      let inboxes = Array.make n [] in
      List.iter
        (fun (_, _, _, d) ->
          List.iter (fun v -> inboxes.(v) <- d :: inboxes.(v)) neighbors.(d.from))
        !in_flight;
      in_flight := [];
      let sent_this_round = ref false in
      for u = 0 to n - 1 do
        let broadcast m =
          sent.(u) <- sent.(u) + 1;
          sent_this_round := true;
          let k = classify m in
          Hashtbl.replace kinds k
            (1 + Option.value ~default:0 (Hashtbl.find_opt kinds k));
          let lam, sseq =
            Distsim.Stamp.send stamp ~round:!rounds ~time:0. ~kind:k ~src:u
          in
          in_flight := (lam, sseq, k, { from = u; msg = m }) :: !in_flight
        in
        let ctx = { me = u; round = !rounds; neighbors = neighbors.(u); broadcast } in
        states.(u) <- on_round ctx states.(u) inboxes.(u)
      done;
      incr rounds;
      if (not !sent_this_round) && !rounds >= min_rounds then quiescent := true
    done;
    let by_kind =
      List.sort compare (Hashtbl.fold (fun k c acc -> (k, c) :: acc) kinds [])
    in
    (states, { E.rounds = !rounds; sent; by_kind })
end

(* A random protocol: until round [active], node [me] broadcasts
   [plan.(me).(round)] messages, each a (kind, payload) whose payload
   folds in the inbox it just read, so any change of inbox content or
   order changes what is sent; every node records its row and its
   inboxes, each message with its sender's slot in that row. *)
type case = {
  n : int;
  edges : (int * int) list;
  plan : int array array;
  kinds : int;
  min_rounds : int;
}

let gen_case =
  let open QCheck.Gen in
  let* n = frequency [ (1, oneofl [ 0; 1; 2 ]); (4, int_range 3 14) ] in
  let* density = float_range 0. 0.6 in
  let* coins = list_repeat (n * n) (float_range 0. 1.) in
  let coins = Array.of_list coins in
  let edges =
    List.concat
      (List.init n (fun u ->
           List.filter_map
             (fun v -> if coins.((u * n) + v) < density then Some (u, v) else None)
             (List.init (n - u - 1) (fun i -> u + 1 + i))))
  in
  let* active = int_range 0 4 in
  let* plan = array_repeat n (array_repeat active (int_range 0 3)) in
  let* kinds = int_range 1 4 in
  let* min_rounds = int_range 0 6 in
  return { n; edges; plan; kinds; min_rounds }

let print_case c =
  Printf.sprintf "n=%d kinds=%d min_rounds=%d edges=[%s] plan=[%s]" c.n c.kinds
    c.min_rounds
    (String.concat ";" (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) c.edges))
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun r -> String.concat "," (Array.to_list (Array.map string_of_int r)))
             c.plan)))

let step c ~me ~round ~broadcast heard (inbox : (int * int * (int * int)) list) =
  let digest =
    List.fold_left
      (fun h (slot, from, (_, payload)) -> (h * 31) + (from * 7) + slot + payload)
      (me + round) inbox
  in
  if round < Array.length c.plan.(me) then
    for j = 1 to c.plan.(me).(round) do
      broadcast ((me + round + j) mod c.kinds, (digest + j) land 0xFFFF)
    done;
  List.rev_append
    (List.rev_map (fun (slot, from, msg) -> (round, slot, from, msg)) inbox)
    heard

let classify (k, _) = "k" ^ string_of_int k

(* the initial state records the neighbors [init] was handed *)
let init_state me row = List.mapi (fun i v -> (-1, i, v, (me, 0))) row

(* [step] on the CSR engine *)
let csr_protocol c =
  {
    E.init = (fun me row -> init_state me (Array.to_list row));
    E.on_round =
      (fun ctx heard inbox ->
        step c ~me:ctx.E.me ~round:ctx.E.round ~broadcast:ctx.E.broadcast heard
          (inbox_list inbox));
  }

(* a sender's slot in the reference engine's neighbor list *)
let rec slot_of v i = function
  | [] -> -1
  | w :: rest -> if w = v then i else slot_of v (i + 1) rest

(* the traced protocol events, projected to what the engines stamp *)
let traced f =
  Obs.reset ();
  Obs.set_enabled true;
  Obs.Trace.start ();
  let r =
    Fun.protect ~finally:Obs.Trace.stop (fun () -> f ())
  in
  let evs =
    List.filter_map
      (fun (e : Obs.Trace.event) ->
        match e.Obs.Trace.payload with
        | Obs.Trace.Send { round; kind; src; dst; lam; sseq; _ } ->
          Some (`Send, round, kind, src, dst, lam, sseq, -1)
        | Obs.Trace.Deliver { round; kind; src; dst; lam; sseq; dseq; _ } ->
          Some (`Deliver, round, kind, src, dst, lam, sseq, dseq)
        | _ -> None)
      (Obs.Trace.events ())
  in
  Obs.set_enabled false;
  Obs.reset ();
  (r, evs)

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"csr engine = list engine (states, stats, trace)"
    ~count:300
    (QCheck.make ~print:print_case gen_case)
    (fun c ->
      let g = G.of_edges c.n c.edges in
      let (s_ref, st_ref), tr_ref =
        traced (fun () ->
            Reference.run ~min_rounds:c.min_rounds ~classify g
              ~init:(fun me row -> init_state me row)
              ~on_round:(fun ctx heard inbox ->
                step c ~me:ctx.Reference.me ~round:ctx.Reference.round
                  ~broadcast:ctx.Reference.broadcast heard
                  (List.map
                     (fun (d : _ Reference.delivery) ->
                       ( slot_of d.Reference.from 0 ctx.Reference.neighbors,
                         d.Reference.from,
                         d.Reference.msg ))
                     inbox)))
      in
      let (s, st), tr =
        traced (fun () ->
            E.run ~min_rounds:c.min_rounds ~classify g (csr_protocol c))
      in
      s = s_ref && st.E.rounds = st_ref.E.rounds && st.E.sent = st_ref.E.sent
      && st.E.by_kind = st_ref.E.by_kind
      && tr = tr_ref)

(* [gen_case] with up to three isolated nodes appended, each with a
   plan of its own *)
let gen_padded_case =
  let open QCheck.Gen in
  let* c = gen_case in
  let* extra = array_size (int_range 0 3) (array_size (int_range 0 4) (int_range 0 3)) in
  return { c with n = c.n + Array.length extra; plan = Array.append c.plan extra }

(* Stamping runs only under an armed trace, so arming one must change
   nothing the protocol or the stats see; the armed run must also have
   stamped every transmission. *)
let prop_trace_invisible =
  QCheck.Test.make ~name:"a trace cannot change the run (states, stats)"
    ~count:300
    (QCheck.make ~print:print_case gen_padded_case)
    (fun c ->
      let g = G.of_edges c.n c.edges in
      let run () = E.run ~min_rounds:c.min_rounds ~classify g (csr_protocol c) in
      let s, st = run () in
      let (s', st'), tr = traced run in
      let sends =
        List.length
          (List.filter (fun (dir, _, _, _, _, _, _, _) -> dir = `Send) tr)
      in
      s = s' && st.E.rounds = st'.E.rounds && st.E.sent = st'.E.sent
      && st.E.by_kind = st'.E.by_kind
      && sends = E.total_sent st)

let suites =
  [
    ( "distsim.engine",
      [
        Alcotest.test_case "hello delivery" `Quick test_hello_delivery;
        Alcotest.test_case "quiesce when silent" `Quick
          test_no_messages_quiesces_immediately;
        Alcotest.test_case "flood over path" `Quick test_flood;
        Alcotest.test_case "per-kind counters" `Quick test_per_kind_counters;
        Alcotest.test_case "inbox sender order" `Quick test_inbox_sender_order;
        Alcotest.test_case "runaway protocol detected" `Quick
          test_runaway_protocol_fails;
        Alcotest.test_case "merge stats" `Quick test_merge_stats;
        Alcotest.test_case "isolated nodes" `Quick test_isolated_nodes;
        QCheck_alcotest.to_alcotest prop_engine_matches_reference;
        QCheck_alcotest.to_alcotest prop_trace_invisible;
      ] );
  ]

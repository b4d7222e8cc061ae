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
type 'msg context = { me : int; round : int; broadcast : 'msg -> unit }

type ('state, 'msg) protocol = {
  init : int -> int array -> 'state;
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

(* kinds are unique within a [by_kind] list, so the name alone orders
   it *)
let by_name ((a : string), _) ((b : string), _) = String.compare a b

let merge s1 s2 =
  if Array.length s1.sent <> Array.length s2.sent then
    invalid_arg "Engine.merge: node count mismatch";
  let rec add k c = function
    | [] -> [ (k, c) ]
    | (k', c') :: rest when String.equal k k' -> (k, c + c') :: rest
    | kc :: rest -> kc :: add k c rest
  in
  {
    rounds = s1.rounds + s2.rounds;
    sent = Array.init (Array.length s1.sent) (fun i -> s1.sent.(i) + s2.sent.(i));
    by_kind =
      List.sort by_name
        (List.fold_left (fun acc (k, c) -> add k c acc) s1.by_kind s2.by_kind);
  }

(* One round's transmissions, in send order.  Nodes step in id order,
   so each sender's messages form one contiguous run: [lo.(u)] ..
   [hi.(u) - 1].  [lam]/[sseq]/[kind] are each message's Lamport stamp
   and kind name, kept for the next round's deliveries. *)
type 'msg buffer = {
  mutable msgs : 'msg delivery array;
  mutable lam : int array;
  mutable sseq : int array;
  mutable kind : string array;
  mutable len : int;
  lo : int array;
  hi : int array;
}

let make_buffer n =
  {
    msgs = [||];
    lam = [||];
    sseq = [||];
    kind = [||];
    len = 0;
    lo = Array.make n 0;
    hi = Array.make n 0;
  }

let push b d ~lam ~sseq ~kind =
  let cap = Array.length b.msgs in
  if b.len = cap then begin
    let cap' = max 64 (2 * cap) in
    let grow a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    b.msgs <- grow b.msgs d;
    b.lam <- grow b.lam 0;
    b.sseq <- grow b.sseq 0;
    b.kind <- grow b.kind kind
  end;
  b.msgs.(b.len) <- d;
  b.lam.(b.len) <- lam;
  b.sseq.(b.len) <- sseq;
  b.kind.(b.len) <- kind;
  b.len <- b.len + 1

(* per-kind transmission tallies; [classify] returns a handful of
   distinct names, so a short list scanned with a physical-equality
   fast path beats hashing the name per message *)
type tally = { name : string; mutable count : int }

let tally_of tallies k =
  let rec find = function
    | t :: _ when t.name == k || String.equal t.name k -> t
    | _ :: rest -> find rest
    | [] ->
      let t = { name = k; count = 0 } in
      tallies := t :: !tallies;
      t
  in
  find !tallies

let run ?max_rounds ?(min_rounds = 0) ~classify csr protocol =
  let module C = Netgraph.Csr in
  let n = C.node_count csr in
  let max_rounds = Option.value max_rounds ~default:((4 * n) + 16) in
  let offsets = C.offsets csr and targets = C.targets csr in
  let states =
    Array.init n (fun u ->
        protocol.init u
          (Array.sub targets offsets.(u) (offsets.(u + 1) - offsets.(u))))
  in
  let sent = Array.make n 0 in
  let tallies = ref [] in
  let stamp = Stamp.create n in
  (* [prev] holds the messages broadcast last round (this round's
     deliveries), [cur] collects this round's broadcasts *)
  let prev = ref (make_buffer n) and cur = ref (make_buffer n) in
  let rounds = ref 0 in
  let me = ref 0 in
  let broadcast m =
    let u = !me in
    sent.(u) <- sent.(u) + 1;
    let k = classify m in
    let t = tally_of tallies k in
    t.count <- t.count + 1;
    let lam, sseq = Stamp.send stamp ~round:!rounds ~time:0. ~kind:k ~src:u in
    push !cur { from = u; msg = m } ~lam ~sseq ~kind:k
  in
  let quiescent = ref false in
  while not !quiescent do
    if !rounds >= max_rounds then
      failwith
        (Printf.sprintf "Engine.run: no quiescence after %d rounds" max_rounds);
    let p = !prev and c = !cur in
    (* Lamport stamps (and trace events) per delivery, in send order:
       each message, then its sender's row in increasing id *)
    for i = 0 to p.len - 1 do
      let src = p.msgs.(i).from in
      for a = offsets.(src) to offsets.(src + 1) - 1 do
        Stamp.deliver stamp ~round:!rounds ~time:0. ~kind:p.kind.(i) ~src
          ~dst:targets.(a) ~sent_lam:p.lam.(i) ~sseq:p.sseq.(i)
      done
    done;
    c.len <- 0;
    let round = !rounds in
    for u = 0 to n - 1 do
      (* the inbox in sender id order, then send order: built
         back to front over the row and each sender's run *)
      let inbox = ref [] in
      if p.len > 0 then
        for a = offsets.(u + 1) - 1 downto offsets.(u) do
          let v = targets.(a) in
          for i = p.hi.(v) - 1 downto p.lo.(v) do
            inbox := p.msgs.(i) :: !inbox
          done
        done;
      me := u;
      c.lo.(u) <- c.len;
      states.(u) <-
        protocol.on_round { me = u; round; broadcast } states.(u) !inbox;
      c.hi.(u) <- c.len
    done;
    if !Obs.on then begin
      Obs.observe d_round_messages (float_of_int c.len);
      Obs.set_gauge g_last_round_messages (float_of_int c.len)
    end;
    prev := c;
    cur := p;
    incr rounds;
    if c.len = 0 && !rounds >= min_rounds then quiescent := true
  done;
  let by_kind =
    List.sort by_name (List.map (fun t -> (t.name, t.count)) !tallies)
  in
  let stats = { rounds = !rounds; sent; by_kind } in
  flush_stats_to_obs ~rounds:stats.rounds ~sent ~by_kind;
  (states, stats)

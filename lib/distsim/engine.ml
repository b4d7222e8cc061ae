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

type 'msg context = { me : int; round : int; broadcast : 'msg -> unit }

(* A receiver's view of the previous round's send buffer: its row
   [first] .. [last - 1] of [targets], each neighbor's run of [msgs]
   bounded by [lo]/[hi].  The engine keeps one per run and points it
   at each node in turn. *)
type 'msg inbox = {
  mutable msgs : 'msg array;
  mutable lo : int array;
  mutable hi : int array;
  targets : int array;
  mutable first : int;
  mutable last : int;
}

let iter_inbox f ib =
  let msgs = ib.msgs and lo = ib.lo and hi = ib.hi and targets = ib.targets in
  let first = ib.first in
  for a = first to ib.last - 1 do
    let v = targets.(a) in
    for i = lo.(v) to hi.(v) - 1 do
      f (a - first) v msgs.(i)
    done
  done

let fold_inbox f acc ib =
  let msgs = ib.msgs and lo = ib.lo and hi = ib.hi and targets = ib.targets in
  let first = ib.first in
  let acc = ref acc in
  for a = first to ib.last - 1 do
    let v = targets.(a) in
    for i = lo.(v) to hi.(v) - 1 do
      acc := f !acc (a - first) v msgs.(i)
    done
  done;
  !acc

type ('state, 'msg) protocol = {
  init : int -> int array -> 'state;
  on_round : 'msg context -> 'state -> 'msg inbox -> 'state;
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
   [hi.(u) - 1]; the sender is implied by its run.  A traced run also
   keeps each message's Lamport stamp and kind in [lam]/[sseq]/[kind]
   for the next round's deliveries. *)
type 'msg buffer = {
  mutable msgs : 'msg array;
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

(* [a] with room for twice as many, its first [len] entries kept *)
let grow a len fill =
  let a' = Array.make (max 64 (2 * Array.length a)) fill in
  Array.blit a 0 a' 0 len;
  a'

let push b m =
  if b.len = Array.length b.msgs then b.msgs <- grow b.msgs b.len m;
  b.msgs.(b.len) <- m;
  b.len <- b.len + 1

(* the stamp of the message [push] just added *)
let push_stamp b ~lam ~sseq ~kind =
  let i = b.len - 1 in
  if i = Array.length b.lam then begin
    b.lam <- grow b.lam i 0;
    b.sseq <- grow b.sseq i 0;
    b.kind <- grow b.kind i kind
  end;
  b.lam.(i) <- lam;
  b.sseq.(i) <- sseq;
  b.kind.(i) <- kind

(* [classify] returns a handful of distinct names, so a short list
   scanned with a physical-equality fast path beats hashing the name
   per message *)
module Tally = struct
  type cell = { name : string; mutable count : int }
  type t = cell list ref

  let create () : t = ref []

  let add (t : t) k =
    let rec find = function
      | c :: _ when c.name == k || String.equal c.name k ->
        c.count <- c.count + 1
      | _ :: rest -> find rest
      | [] -> t := { name = k; count = 1 } :: !t
    in
    find !t

  let to_list (t : t) =
    List.sort by_name (List.map (fun c -> (c.name, c.count)) !t)
end

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
  let tallies = Tally.create () in
  (* Lamport clocks are observable only through the trace, so a run
     stamps only when one is armed as it starts *)
  let traced = !Obs.Trace.on in
  let stamp = Stamp.create n in
  (* [prev] holds the messages broadcast last round (this round's
     deliveries), [cur] collects this round's broadcasts *)
  let prev = ref (make_buffer n) and cur = ref (make_buffer n) in
  let inbox =
    { msgs = [||]; lo = [||]; hi = [||]; targets; first = 0; last = 0 }
  in
  let rounds = ref 0 in
  let me = ref 0 in
  let broadcast m =
    let u = !me in
    sent.(u) <- sent.(u) + 1;
    let k = classify m in
    Tally.add tallies k;
    push !cur m;
    if traced then begin
      let lam, sseq = Stamp.send stamp ~round:!rounds ~time:0. ~kind:k ~src:u in
      push_stamp !cur ~lam ~sseq ~kind:k
    end
  in
  let quiescent = ref false in
  while not !quiescent do
    if !rounds >= max_rounds then
      failwith
        (Printf.sprintf "Engine.run: no quiescence after %d rounds" max_rounds);
    let p = !prev and c = !cur in
    (* Lamport stamps (and trace events) per delivery, in send order:
       each sender's run, then its row in increasing id *)
    if traced then
      for src = 0 to n - 1 do
        for i = p.lo.(src) to p.hi.(src) - 1 do
          for a = offsets.(src) to offsets.(src + 1) - 1 do
            Stamp.deliver stamp ~round:!rounds ~time:0. ~kind:p.kind.(i) ~src
              ~dst:targets.(a) ~sent_lam:p.lam.(i) ~sseq:p.sseq.(i)
          done
        done
      done;
    c.len <- 0;
    let round = !rounds in
    inbox.msgs <- p.msgs;
    inbox.lo <- p.lo;
    inbox.hi <- p.hi;
    for u = 0 to n - 1 do
      inbox.first <- offsets.(u);
      inbox.last <- (if p.len > 0 then offsets.(u + 1) else offsets.(u));
      me := u;
      c.lo.(u) <- c.len;
      states.(u) <-
        protocol.on_round { me = u; round; broadcast } states.(u) inbox;
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
  let by_kind = Tally.to_list tallies in
  let stats = { rounds = !rounds; sent; by_kind } in
  flush_stats_to_obs ~rounds:stats.rounds ~sent ~by_kind;
  (states, stats)

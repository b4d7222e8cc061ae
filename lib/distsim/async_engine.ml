let c_runs = Obs.counter "distsim.async.runs"
let c_sent = Obs.counter "distsim.async.sent"
let c_deliveries = Obs.counter "distsim.async.deliveries"
let d_sent = Obs.dist "distsim.async.sent_per_node"
let g_finish = Obs.gauge "distsim.async.finish_time"

type 'msg delivery = { from : int; time : float; msg : 'msg }

type 'msg context = { me : int; now : float; broadcast : 'msg -> unit }

type ('state, 'msg) protocol = {
  init : int -> int array -> 'state;
  on_start : 'msg context -> 'state -> 'state;
  on_message : 'msg context -> 'state -> 'msg delivery -> 'state;
}

type stats = {
  deliveries : int;
  sent : int array;
  finish_time : float;
  by_kind : (string * int) list;
}

(* One pending delivery to [dst] of a send stamped [(lam, sseq)]. *)
type 'msg pending = {
  tb : int;
  dst : int;
  lam : int;
  sseq : int;
  d : 'msg delivery;
}

(* Event queue: a binary min-heap on (delivery time, tiebreak).  The
   tiebreak (a global sequence number) makes simultaneous deliveries
   process in send order, keeping runs deterministic for a
   deterministic delay function. *)
module Heap = struct
  type 'msg t = { mutable data : 'msg pending array; mutable size : int }

  let create () = { data = [||]; size = 0 }

  let lt a b =
    a.d.time < b.d.time || (a.d.time = b.d.time && a.tb < b.tb)

  let push h e =
    if h.size = Array.length h.data then begin
      let cap = max 16 (2 * h.size) in
      let bigger = Array.make cap e in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- e;
    h.size <- h.size + 1;
    let i = ref (h.size - 1) in
    while !i > 0 && lt h.data.(!i) h.data.((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      let tmp = h.data.(!i) in
      h.data.(!i) <- h.data.(p);
      h.data.(p) <- tmp;
      i := p
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && lt h.data.(l) h.data.(!smallest) then smallest := l;
        if r < h.size && lt h.data.(r) h.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          let tmp = h.data.(!i) in
          h.data.(!i) <- h.data.(!smallest);
          h.data.(!smallest) <- tmp;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

let run ?(max_messages = 10_000_000) ?(classify = fun _ -> "msg") ~delay csr
    protocol =
  let module C = Netgraph.Csr in
  let n = C.node_count csr in
  let offsets = C.offsets csr and targets = C.targets csr in
  let states =
    Array.init n (fun u ->
        protocol.init u
          (Array.sub targets offsets.(u) (offsets.(u + 1) - offsets.(u))))
  in
  let sent = Array.make n 0 in
  let kinds = Engine.Tally.create () in
  let queue = Heap.create () in
  let stamp = Stamp.create n in
  let seq = ref 0 in
  let tiebreak = ref 0 in
  let transmit u now m =
    sent.(u) <- sent.(u) + 1;
    let k = classify m in
    Engine.Tally.add kinds k;
    let lam, sseq = Stamp.send stamp ~round:(-1) ~time:now ~kind:k ~src:u in
    for a = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(a) in
      let d = delay ~from:u ~dst:v ~seq:!seq in
      if d <= 0. then invalid_arg "Async_engine.run: non-positive delay";
      incr tiebreak;
      Heap.push queue
        { tb = !tiebreak; dst = v; lam; sseq;
          d = { from = u; time = now +. d; msg = m } }
    done;
    incr seq
  in
  let ctx u now = { me = u; now; broadcast = (fun m -> transmit u now m) } in
  for u = 0 to n - 1 do
    states.(u) <- protocol.on_start (ctx u 0.) states.(u)
  done;
  let deliveries = ref 0 in
  let finish = ref 0. in
  let rec loop () =
    match Heap.pop queue with
    | None -> ()
    | Some { dst = v; lam; sseq; d; _ } ->
      incr deliveries;
      if !deliveries > max_messages then
        failwith "Async_engine.run: delivery bound exceeded";
      let t = d.time in
      finish := t;
      let k = if !Obs.Trace.on then classify d.msg else "" in
      Stamp.deliver stamp ~round:(-1) ~time:t ~kind:k ~src:d.from ~dst:v
        ~sent_lam:lam ~sseq;
      states.(v) <- protocol.on_message (ctx v t) states.(v) d;
      loop ()
  in
  loop ();
  let by_kind = Engine.Tally.to_list kinds in
  if !Obs.on then begin
    Obs.incr c_runs;
    Obs.add c_sent (Array.fold_left ( + ) 0 sent);
    Obs.add c_deliveries !deliveries;
    Obs.set_gauge g_finish !finish;
    Array.iter (fun s -> Obs.observe d_sent (float_of_int s)) sent;
    List.iter
      (fun (k, c) -> Obs.add (Obs.counter ("distsim.async.msg." ^ k)) c)
      by_kind
  end;
  (states,
   { deliveries = !deliveries; sent; finish_time = !finish; by_kind })

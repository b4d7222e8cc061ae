module Csr = Netgraph.Csr
module P = Geometry.Point

(* Routers read the topology as a sealed CSR, whose rows iterate in
   ascending id order; each list router is a thin wrapper over its
   [_into] kernel below.

   The kernels route into a caller-owned {!Scratch} and are written
   for the serve engine's steady state: no per-query heap allocation.
   Cycle guards are an epoch-stamped mark array (bumping the stamp
   invalidates every mark in O(1), replacing the per-query Hashtbl),
   paths land in a reusable int buffer, float temporaries live in a
   pre-sized float array, and the neighbor scans are closures created
   once per scratch that read their state from scratch registers.
   The closer and ccw scans reproduce the list folds of the GFG
   automaton kept as the test oracle (same comparison structure, same
   float expression order as Point's own definitions), so GFG routes
   are bit-identical to it — including NaN corner cases from coincident
   points, where "replace best" conditions are spelled as the
   negation of the original "keep best" guards. *)

let max_steps g = (4 * Csr.edge_count g) + 16

(* Per-scheme route/delivery counters and a shared hop distribution,
   charged by the list wrappers only. *)
let d_hops = Obs.dist "routing.path_hops"

(* GFG forwarding decisions, charged by [gfg_decide] alone *)
let c_gfg_decisions = Obs.counter "routing.gfg.steps"

let instrumented name =
  let c_routes = Obs.counter ("routing." ^ name ^ ".routes")
  and c_delivered = Obs.counter ("routing." ^ name ^ ".delivered") in
  fun result ->
    Obs.incr c_routes;
    (match result with
    | Some path ->
      Obs.incr c_delivered;
      Obs.observe d_hops (float_of_int (max 0 (List.length path - 1)))
    | None -> ());
    result

let obs_greedy = instrumented "greedy"
let obs_compass = instrumented "compass"
let obs_gfg = instrumented "gfg"
let obs_hierarchical = instrumented "hierarchical"

(* Float registers; a flat array so stores stay unboxed:
   0 — distance from the current node to dst (greedy scans)
   1 — key of the best candidate so far (distance/angle/rel)
   2 — reference angle for the ccw scan
   3 — perimeter entry distance to dst (greedy resumes below it)
   4 — best crossing distance of the entry->dst segment so far
   5, 6 — the toward-dst vector at the current node
   7 — its norm
   8 — distance to dst of the last edge's crossing (see [crossing]) *)
type scratch = {
  mutable mark : int array;  (* mark.(u) = stamp  <=>  visited this query *)
  mutable stamp : int;
  mutable path : int array;
  mutable len : int;  (* nodes of the last delivered path; 0 otherwise *)
  fl : float array;
  (* query registers, set by the kernels *)
  mutable g : Csr.t;
  mutable pts : P.t array;
  mutable dst : int;
  mutable cur : int;
  mutable best : int;  (* scan result, -1 = none *)
  mutable steps : int;
  mutable state : int;
      (* 0 = routing, 1 = delivered, 2 = dropped, 3 = at a local
         minimum of [hierarchical_into]'s greedy phase *)
  mutable drop : int;  (* index into [drop_reasons]; -1 unless dropped *)
  mutable mode : int;  (* gfg header: 0 = greedy, 1 = perimeter *)
  mutable entry : int;  (* node where perimeter mode was entered *)
  mutable start_u : int;  (* first directed edge of the current face *)
  mutable start_w : int;
  mutable p_first : bool;  (* still on the starting edge of this face *)
  mutable prev : int;  (* previous node while in perimeter mode *)
  (* neighbor scans, created once per scratch (closing over it) *)
  mutable scan_closer : int -> unit;
  mutable scan_compass : int -> unit;
  mutable scan_ccw : int -> unit;
}

module Scratch = struct
  type t = scratch

  let nop (_ : int) = ()

  let create ?(n = 0) () =
    let sc =
      {
        mark = Array.make (max n 1) 0;
        stamp = 0;
        path = Array.make 16 0;
        len = 0;
        fl = Array.make 9 0.;
        g = Csr.of_edges 0 [];
        pts = [||];
        dst = 0;
        cur = 0;
        best = -1;
        steps = 0;
        state = 0;
        drop = -1;
        mode = 0;
        entry = -1;
        start_u = -1;
        start_w = -1;
        p_first = true;
        prev = -1;
        scan_closer = nop;
        scan_compass = nop;
        scan_ccw = nop;
      }
    in
    (* greedy: strictly closer to dst, minimal distance, smallest id
       among candidates scanned first wins (ascending iteration) *)
    sc.scan_closer <-
      (fun v ->
        let pv = sc.pts.(v) and pd = sc.pts.(sc.dst) in
        let dx = pv.P.x -. pd.P.x and dy = pv.P.y -. pd.P.y in
        let dv = sqrt ((dx *. dx) +. (dy *. dy)) in
        if sc.best >= 0 && sc.fl.(1) <= dv then ()
        else if dv < sc.fl.(0) then begin
          sc.best <- v;
          sc.fl.(1) <- dv
        end);
    (* compass: smallest unsigned angle between (u -> w) and (u -> dst) *)
    sc.scan_compass <-
      (fun w ->
        let pu = sc.pts.(sc.cur) and pw = sc.pts.(w) in
        let wx = pw.P.x -. pu.P.x and wy = pw.P.y -. pu.P.y in
        let d = (sc.fl.(5) *. wx) +. (sc.fl.(6) *. wy) in
        let nw = sqrt ((wx *. wx) +. (wy *. wy)) in
        let c = d /. (sc.fl.(7) *. nw) in
        let c = Float.max (-1.) (Float.min 1. c) in
        let s = acos c in
        if sc.best >= 0 && sc.fl.(1) <= s then ()
        else begin
          sc.best <- w;
          sc.fl.(1) <- s
        end);
    (* first edge counterclockwise from the reference angle fl.(2) *)
    sc.scan_ccw <-
      (fun w ->
        let pv = sc.pts.(sc.cur) and pw = sc.pts.(w) in
        let a = atan2 (pw.P.y -. pv.P.y) (pw.P.x -. pv.P.x) -. sc.fl.(2) in
        let r = if a <= 1e-13 then a +. (2. *. Float.pi) else a in
        if sc.best < 0 then begin
          sc.best <- w;
          sc.fl.(1) <- r
        end
        else if r < sc.fl.(1) then begin
          sc.best <- w;
          sc.fl.(1) <- r
        end);
    sc

  let ensure sc n = if n > Array.length sc.mark then sc.mark <- Array.make n 0

  let push sc u =
    let cap = Array.length sc.path in
    if sc.len >= cap then begin
      let bigger = Array.make (2 * cap) 0 in
      Array.blit sc.path 0 bigger 0 cap;
      sc.path <- bigger
    end;
    sc.path.(sc.len) <- u;
    sc.len <- sc.len + 1

  let path sc = sc.path
  let path_len sc = sc.len
  let drop sc = sc.drop

  let path_list sc =
    let rec build i acc =
      if i < 0 then acc else build (i - 1) (sc.path.(i) :: acc)
    in
    build (sc.len - 1) []
end

(* Drop reasons, indices into [drop_reasons] *)
let local_minimum = 0
let face_loop = 1
let revisit = 2
let step_cap = 3
let out_of_range = 4

let drop_reasons =
  [| "local_minimum"; "face_loop"; "revisit"; "step_cap"; "out_of_range" |]

let fail sc reason =
  sc.state <- 2;
  sc.drop <- reason

let in_range g u = u >= 0 && u < Csr.node_count g

(* a fresh query: every mark retired, the path emptied *)
let prepare sc g points ~dst =
  Scratch.ensure sc (Csr.node_count g);
  sc.stamp <- sc.stamp + 1;
  sc.g <- g;
  sc.pts <- points;
  sc.dst <- dst;
  sc.len <- 0;
  sc.drop <- -1

(* an out-of-range [src] or [dst]: nothing routed *)
let rejected sc =
  sc.len <- 0;
  sc.drop <- out_of_range;
  -1

(* the hop count of a finished query, or -1 with its path cleared *)
let finish sc =
  if sc.state = 1 then sc.len - 1
  else begin
    sc.len <- 0;
    -1
  end

(* du into fl.(0), then the strictly-closer scan *)
let closer_scan sc u =
  let pu = sc.pts.(u) and pd = sc.pts.(sc.dst) in
  let dx = pu.P.x -. pd.P.x and dy = pu.P.y -. pd.P.y in
  sc.fl.(0) <- sqrt ((dx *. dx) +. (dy *. dy));
  sc.best <- -1;
  Csr.iter_neighbors sc.g u sc.scan_closer

(* Every walking router is one forwarding decision at [sc.cur] over the
   scratch registers.  A decision leaves [sc.state] at 1 (delivered at
   [sc.cur]), at 2 (dropped, the reason in [sc.drop]), or at 0 with
   [sc.cur] moved to the next hop.  [walk] folds a decision under the
   step budget and appends each decided node to the path; [finish]
   clears a dropped query's path. *)
let walk sc decide =
  sc.steps <- max_steps sc.g;
  sc.state <- 0;
  while sc.state = 0 do
    if sc.steps <= 0 then fail sc step_cap
    else begin
      let u = sc.cur in
      decide sc;
      Scratch.push sc u;
      sc.steps <- sc.steps - 1
    end
  done

(* the [_into] kernels' frame: [decide] folded from [src] *)
let route sc g points ~src ~dst decide =
  if not (in_range g src && in_range g dst) then rejected sc
  else begin
    prepare sc g points ~dst;
    sc.cur <- src;
    walk sc decide;
    finish sc
  end

(* greedy: forward to the closest strictly-closer neighbor *)
let greedy_decide sc =
  let u = sc.cur in
  if u = sc.dst then sc.state <- 1
  else begin
    closer_scan sc u;
    if sc.best < 0 then fail sc local_minimum else sc.cur <- sc.best
  end

let greedy_into sc g points ~src ~dst =
  route sc g points ~src ~dst greedy_decide

(* toward-dst vector and norm at u, into fl.(5..7) *)
let toward_setup sc u =
  let pu = sc.pts.(u) and pd = sc.pts.(sc.dst) in
  let tx = pd.P.x -. pu.P.x and ty = pd.P.y -. pu.P.y in
  sc.fl.(5) <- tx;
  sc.fl.(6) <- ty;
  sc.fl.(7) <- sqrt ((tx *. tx) +. (ty *. ty))

(* compass: forward to the neighbor angularly closest to dst, or to dst
   itself when adjacent; compass can loop where greedy cannot, so a
   second visit (a stamped mark) drops *)
let compass_decide sc =
  let u = sc.cur and dst = sc.dst in
  if u = dst then sc.state <- 1
  else if sc.mark.(u) = sc.stamp then fail sc revisit
  else begin
    sc.mark.(u) <- sc.stamp;
    if Csr.mem_edge sc.g u dst then sc.cur <- dst
    else begin
      toward_setup sc u;
      sc.best <- -1;
      Csr.iter_neighbors sc.g u sc.scan_compass;
      if sc.best < 0 then fail sc local_minimum else sc.cur <- sc.best
    end
  end

let compass_into sc g points ~src ~dst =
  route sc g points ~src ~dst compass_decide

(* first edge counterclockwise from fl.(2) around u *)
let ccw_scan sc u =
  sc.best <- -1;
  Csr.iter_neighbors sc.g u sc.scan_ccw

(* Distance to dst of the proper crossing of edge (u, w) with the
   segment entry -> dst, or nan when they do not properly cross, into
   fl.(8) (a float result would be boxed).  The arithmetic is
   [Geometry.Segment.intersection_point]'s, operation for operation,
   on scratch floats instead of allocated points and segments.  An
   edge sharing an end with the segment never crosses it properly:
   that orientation is exactly collinear, which [orient2d] settles
   only on its allocating exact path, so it is not asked. *)
let crossing sc u w =
  let module Pr = Geometry.Predicates in
  let e = sc.entry and d = sc.dst in
  let pu = sc.pts.(u) and pw = sc.pts.(w) in
  let pe = sc.pts.(e) and pd = sc.pts.(d) in
  if
    u <> e && w <> e && u <> d && w <> d
    && Pr.opposite (Pr.orient2d pu pw pe) (Pr.orient2d pu pw pd)
    && Pr.opposite (Pr.orient2d pe pd pu) (Pr.orient2d pe pd pw)
  then begin
    let rx = pw.P.x -. pu.P.x and ry = pw.P.y -. pu.P.y in
    let sx = pd.P.x -. pe.P.x and sy = pd.P.y -. pe.P.y in
    let denom = (rx *. sy) -. (ry *. sx) in
    if Float.equal denom 0. then sc.fl.(8) <- nan
    else begin
      let t =
        (((pe.P.x -. pu.P.x) *. sy) -. ((pe.P.y -. pu.P.y) *. sx)) /. denom
      in
      let dx = pu.P.x +. (t *. rx) -. pd.P.x
      and dy = pu.P.y +. (t *. ry) -. pd.P.y in
      sc.fl.(8) <- sqrt ((dx *. dx) +. (dy *. dy))
    end
  end
  else sc.fl.(8) <- nan

(* pivot around [u] handling face changes, then forward along the
   settled edge *)
let rec advance_k sc u w =
  if (not sc.p_first) && u = sc.start_u && w = sc.start_w then
    fail sc face_loop
  else begin
    crossing sc u w;
    let d = sc.fl.(8) in
    let cross = if d < sc.fl.(4) -. 1e-12 then d else nan in
    if Float.is_nan cross then begin
      sc.p_first <- false;
      sc.prev <- u;
      sc.cur <- w;
      sc.mode <- 1
    end
    else begin
      let pu = sc.pts.(u) and pw = sc.pts.(w) in
      sc.fl.(2) <- atan2 (pw.P.y -. pu.P.y) (pw.P.x -. pu.P.x);
      ccw_scan sc u;
      if sc.best < 0 then fail sc local_minimum
      else begin
        let w' = sc.best in
        sc.fl.(4) <- cross;
        sc.start_u <- u;
        sc.start_w <- w';
        sc.p_first <- true;
        advance_k sc u w'
      end
    end
  end

let enter_perimeter_k sc u =
  let pu = sc.pts.(u) and pd = sc.pts.(sc.dst) in
  sc.fl.(2) <- atan2 (pd.P.y -. pu.P.y) (pd.P.x -. pu.P.x);
  ccw_scan sc u;
  if sc.best < 0 then fail sc local_minimum
  else begin
    let w = sc.best in
    sc.entry <- u;
    let dx = pu.P.x -. pd.P.x and dy = pu.P.y -. pd.P.y in
    let d = sqrt ((dx *. dx) +. (dy *. dy)) in
    sc.fl.(3) <- d;
    sc.fl.(4) <- d;
    sc.start_u <- u;
    sc.start_w <- w;
    sc.p_first <- true;
    advance_k sc u w
  end

let gfg_greedy_step sc u =
  closer_scan sc u;
  if sc.best >= 0 then begin
    sc.cur <- sc.best;
    sc.mode <- 0
  end
  else enter_perimeter_k sc u

(* GFG's forwarding decision at [sc.cur], from its neighbors and the
   header registers alone: the one place [routing.gfg.steps] is
   charged, once per decision *)
let gfg_decide sc =
  Obs.incr c_gfg_decisions;
  let u = sc.cur and dst = sc.dst in
  if u = dst then sc.state <- 1
  else if sc.mode = 0 then gfg_greedy_step sc u
  else begin
    let pts = sc.pts in
    let pu = pts.(u) and pd = pts.(dst) in
    let dx = pu.P.x -. pd.P.x and dy = pu.P.y -. pd.P.y in
    let du = sqrt ((dx *. dx) +. (dy *. dy)) in
    if du < sc.fl.(3) then gfg_greedy_step sc u
    else begin
      let pp = pts.(sc.prev) in
      sc.fl.(2) <- atan2 (pp.P.y -. pu.P.y) (pp.P.x -. pu.P.x);
      ccw_scan sc u;
      if sc.best < 0 then fail sc local_minimum else advance_k sc u sc.best
    end
  end

(* GFG from [src] to [sc.dst] over [sc.g], appending to the path
   already in the scratch; leaves [sc.state] at 1 or 2 *)
let gfg_walk sc ~src =
  sc.cur <- src;
  sc.mode <- 0;
  sc.prev <- -1;
  walk sc gfg_decide

let gfg_into sc g points ~src ~dst =
  if not (in_range g src && in_range g dst) then rejected sc
  else begin
    prepare sc g points ~dst;
    (* src = dst is delivered before any decision *)
    if src = dst then begin
      Scratch.push sc src;
      0
    end
    else begin
      gfg_walk sc ~src;
      finish sc
    end
  end

(* GFG's packet header: the registers [gfg_decide] reads between hops,
   flattened into what a packet carries.  [gfg_walk] keeps them in the
   scratch and never builds one. *)
type header = {
  perimeter : bool;
  entry : int;
  prev : int;
  start_u : int;
  start_w : int;
  p_first : bool;
  entry_dist : float;
  best_cross : float;
}

let greedy_header =
  {
    perimeter = false;
    entry = -1;
    prev = -1;
    start_u = -1;
    start_w = -1;
    p_first = true;
    entry_dist = 0.;
    best_cross = 0.;
  }

(* one decision at [u] outside any walk: the next hop, or -1 when the
   packet stops at [u] *)
let hop sc g points ~dst u decide =
  sc.g <- g;
  sc.pts <- points;
  sc.dst <- dst;
  sc.drop <- -1;
  sc.cur <- u;
  sc.state <- 0;
  decide sc;
  if sc.state = 0 then sc.cur else -1

let greedy_hop sc g points ~dst u = hop sc g points ~dst u greedy_decide

let gfg_hop (sc : scratch) g points ~dst u h =
  sc.mode <- (if h.perimeter then 1 else 0);
  sc.entry <- h.entry;
  sc.prev <- h.prev;
  sc.start_u <- h.start_u;
  sc.start_w <- h.start_w;
  sc.p_first <- h.p_first;
  sc.fl.(3) <- h.entry_dist;
  sc.fl.(4) <- h.best_cross;
  hop sc g points ~dst u gfg_decide

let gfg_header (sc : scratch) =
  {
    perimeter = sc.mode = 1;
    entry = sc.entry;
    prev = sc.prev;
    start_u = sc.start_u;
    start_w = sc.start_w;
    p_first = sc.p_first;
    entry_dist = sc.fl.(3);
    best_cross = sc.fl.(4);
  }

(* A backbone node is its own gateway; a dominatee enters at its
   smallest-id dominator, the first in its ascending UDG row. *)
let gateway ~udg ~roles ~backbone u =
  if backbone.(u) then u
  else begin
    let off = Csr.offsets udg and tgt = Csr.targets udg in
    let k = ref off.(u) and d = ref (-1) in
    while !d < 0 && !k < off.(u + 1) do
      let v = tgt.(!k) in
      if roles.(v) = Mis.Dominator then d := v;
      incr k
    done;
    if !d < 0 then invalid_arg "Routing.gateway: node has no dominator";
    !d
  end

(* GPSR's split (Karp–Kung): greedy over the full neighbour table
   while it makes progress, recovery over the planar subgraph *)
let hierarchical_into sc (s : Shard.snapshot) ~src ~dst =
  let pts = s.Shard.points and udg = s.Shard.udg in
  let n = Array.length pts in
  if src < 0 || src >= n || dst < 0 || dst >= n then rejected sc
  else begin
    prepare sc udg pts ~dst;
    sc.cur <- src;
    sc.steps <- max_steps udg;
    sc.state <- 0;
    while sc.state = 0 do
      let u = sc.cur in
      if u = dst then begin
        Scratch.push sc u;
        sc.state <- 1
      end
      else if sc.steps <= 0 then fail sc step_cap
      else if Csr.mem_edge udg u dst then begin
        Scratch.push sc u;
        sc.cur <- dst;
        sc.steps <- sc.steps - 1
      end
      else begin
        closer_scan sc u;
        if sc.best < 0 then sc.state <- 3
        else begin
          Scratch.push sc u;
          sc.cur <- sc.best;
          sc.steps <- sc.steps - 1
        end
      end
    done;
    if sc.state = 3 then begin
      (* u -> its gateway -> GFG over PLDel -> dst's gateway -> dst *)
      let u = sc.cur in
      let roles = s.Shard.roles and backbone = s.Shard.backbone in
      let enter = gateway ~udg ~roles ~backbone u
      and exit = gateway ~udg ~roles ~backbone dst in
      if enter <> u then Scratch.push sc u;
      if enter = exit then begin
        Scratch.push sc enter;
        sc.state <- 1
      end
      else begin
        sc.g <- s.Shard.pldel;
        sc.dst <- exit;
        gfg_walk sc ~src:enter;
        sc.dst <- dst
      end;
      if sc.state = 1 && exit <> dst then Scratch.push sc dst
    end;
    finish sc
  end

let listed obs kernel g points ~src ~dst =
  let sc = Scratch.create ~n:(Csr.node_count g) () in
  obs
    (if kernel sc g points ~src ~dst < 0 then None
     else Some (Scratch.path_list sc))

let greedy g = listed obs_greedy greedy_into g
let compass g = listed obs_compass compass_into g
let gfg g = listed obs_gfg gfg_into g

let hierarchical (s : Shard.snapshot) ~src ~dst =
  let sc = Scratch.create ~n:(Array.length s.Shard.points) () in
  obs_hierarchical
    (if hierarchical_into sc s ~src ~dst < 0 then None
     else Some (Scratch.path_list sc))

type evaluation = {
  pairs : int;
  delivered : int;
  avg_length_stretch : float;
  avg_hop_stretch : float;
}

let evaluate ~router ~base points ~pairs rng =
  Obs.span "routing.evaluate" @@ fun () ->
  let n = Csr.node_count base in
  let weighted = Csr.with_weights base points in
  let delivered = ref 0 in
  let len_sum = ref 0. and hop_sum = ref 0. and measured = ref 0 in
  let tried = ref 0 in
  let attempts = ref 0 in
  (* fewer than two nodes: no pair to draw *)
  while n >= 2 && !tried < pairs && !attempts < 100 * pairs do
    incr attempts;
    let src = Wireless.Rand.int rng n in
    let dst = Wireless.Rand.int rng n in
    if src <> dst then begin
      let hops = Csr.bfs base src in
      if hops.(dst) <> max_int then begin
        incr tried;
        match router ~src ~dst with
        | None -> ()
        | Some path ->
          incr delivered;
          let sp = Csr.dijkstra weighted src in
          let plen = Netgraph.Traversal.path_length points path in
          if sp.(dst) > 0. then begin
            incr measured;
            len_sum := !len_sum +. (plen /. sp.(dst));
            hop_sum :=
              !hop_sum
              +. (float_of_int (Netgraph.Traversal.path_hops path)
                 /. float_of_int hops.(dst))
          end
      end
    end
  done;
  {
    pairs = !tried;
    delivered = !delivered;
    avg_length_stretch =
      (if !measured = 0 then 0. else !len_sum /. float_of_int !measured);
    avg_hop_stretch =
      (if !measured = 0 then 0. else !hop_sum /. float_of_int !measured);
  }

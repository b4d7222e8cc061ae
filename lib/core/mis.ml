module C = Netgraph.Csr

type role = Dominator | Dominatee

(* The smallest-ID rule iterated to fixpoint on a CSR snapshot.  Each
   pass blackens every white node that beats all of its white
   neighbors, then grays their white neighbors; the global minimum
   among whites always wins, so every pass decides at least one node.
   A pass is split into two barrier-separated phases over the tiles:
   every tile first elects its winners against the colors as they
   stood at the start of the pass (reads only), then every tile
   applies its winners.  Winners of one pass are pairwise non-adjacent
   — [better] is a strict total order, so two adjacent white nodes
   cannot both beat each other — which makes the apply phase
   conflict-free up to idempotent gray writes: a neighbor touched from
   two tiles is written the same value.  The fixpoint is therefore
   bit-identical for any tiling and any job count. *)
let compute ?pool ?owners ?(priority = fun u -> u) csr =
  let n = C.node_count csr in
  let owners =
    match owners with
    | Some o -> o
    | None -> [| Array.init n (fun u -> u) |]
  in
  let ntiles = Array.length owners in
  (* 0 = white, 1 = black, 2 = gray *)
  let color = Array.make (max 1 n) 0 in
  let winner = Array.make (max 1 n) false in
  let wins = Array.make (max 1 ntiles) 0 in
  let better u v =
    let pu = priority u and pv = priority v in
    pu < pv || (pu = pv && u < v)
  in
  let for_tiles body =
    match pool with
    | Some p ->
      Obs.quiesced (fun () ->
          Netgraph.Pool.parallel_for p ~n:ntiles (fun () -> body))
    | None ->
      for t = 0 to ntiles - 1 do
        body t
      done
  in
  let compute_tile t =
    let w = ref 0 in
    Array.iter
      (fun u ->
        if color.(u) = 0 then begin
          let ok = ref true in
          C.iter_neighbors csr u (fun v ->
              if !ok && color.(v) = 0 && not (better u v) then ok := false);
          if !ok then begin
            winner.(u) <- true;
            incr w
          end
        end)
      owners.(t);
    wins.(t) <- !w
  in
  let apply_tile t =
    Array.iter
      (fun u ->
        if winner.(u) then begin
          winner.(u) <- false;
          color.(u) <- 1;
          C.iter_neighbors csr u (fun v ->
              if color.(v) = 0 then color.(v) <- 2)
        end)
      owners.(t)
  in
  let progress = ref true in
  while !progress do
    for_tiles compute_tile;
    if Array.for_all (fun w -> w = 0) wins then progress := false
    else for_tiles apply_tile
  done;
  Array.init n (fun u ->
      match color.(u) with
      | 1 -> Dominator
      | 2 -> Dominatee
      | _ -> assert false (* fixpoint colors every node *))

let dominators roles =
  let acc = ref [] in
  Array.iteri (fun u r -> if r = Dominator then acc := u :: !acc) roles;
  List.rev !acc

let dominators_of g roles u =
  if roles.(u) = Dominator then []
  else List.filter (fun v -> roles.(v) = Dominator) (C.neighbors g u)

let two_hop_dominators g roles u =
  let one_hop = C.neighbors g u in
  let at_two = ref [] in
  List.iter
    (fun v ->
      List.iter
        (fun w ->
          if w <> u && (not (C.mem_edge g u w)) && roles.(w) = Dominator then
            at_two := w :: !at_two)
        (C.neighbors g v))
    one_hop;
  List.sort_uniq Int.compare !at_two

let is_independent g roles =
  C.fold_edges g
    (fun acc u v -> acc && not (roles.(u) = Dominator && roles.(v) = Dominator))
    true

let is_dominating g roles =
  let n = C.node_count g in
  let ok = ref true in
  for u = 0 to n - 1 do
    if
      roles.(u) = Dominatee
      && not (List.exists (fun v -> roles.(v) = Dominator) (C.neighbors g u))
    then ok := false
  done;
  !ok

(* For a maximal independent set the two conditions coincide, but the
   test-suite asserts them separately. *)
let is_maximal = is_dominating

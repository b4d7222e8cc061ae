module G = Netgraph.Graph

type result = { connector : bool array; cds_edges : (int * int) list }
type t = { connector : bool array; cds : Netgraph.Csr.t }

let candidates_two_hop g roles u v =
  List.filter
    (fun w -> roles.(w) = Mis.Dominatee && G.has_edge g w v)
    (G.neighbors g u)

(* The local-minimum rule over any adjacency test: a candidate wins
   when no other candidate it can hear has a smaller id. *)
let elect_by adjacent (candidates : int list) =
  List.filter
    (fun w ->
      List.for_all (fun x -> x = w || (not (adjacent w x)) || w < x) candidates)
    candidates

let elect g candidates = elect_by (G.has_edge g) candidates

let ordered_edge u v = (Int.min u v, Int.max u v)

(* A growable int buffer; each worker domain keeps a few for its whole
   fan-out, so the elections allocate only when one outgrows them. *)
type buf = { mutable a : int array; mutable len : int }

let buf () = { a = Array.make 64 0; len = 0 }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (2 * b.len) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

(* The dominator index: row u of the result is the Dominator-filtered
   UDG row of u, ascending, as offsets and targets.  Count, prefix
   sum, fill — each row writes only its own slots, so the passes fan
   out over the pool like [Csr.filter]'s. *)
let dominator_index ?pool csr roles =
  let module C = Netgraph.Csr in
  let n = C.node_count csr in
  let off = C.offsets csr and adj = C.targets csr in
  let each body =
    match pool with
    | Some p ->
      Obs.quiesced (fun () -> Netgraph.Pool.parallel_for p ~n (fun () -> body))
    | None ->
      for u = 0 to n - 1 do
        body u
      done
  in
  let dom_off = Array.make (n + 1) 0 in
  each (fun u ->
      let c = ref 0 in
      for k = off.(u) to off.(u + 1) - 1 do
        if roles.(adj.(k)) = Mis.Dominator then incr c
      done;
      dom_off.(u + 1) <- !c);
  for u = 0 to n - 1 do
    dom_off.(u + 1) <- dom_off.(u) + dom_off.(u + 1)
  done;
  let dom_adj = Array.make dom_off.(n) 0 in
  each (fun u ->
      let i = ref dom_off.(u) in
      for k = off.(u) to off.(u + 1) - 1 do
        let v = adj.(k) in
        if roles.(v) = Mis.Dominator then begin
          dom_adj.(!i) <- v;
          incr i
        end
      done);
  (dom_off, dom_adj)

(* Algorithm 1 on a CSR snapshot.  Every election uses only
   information a candidate hears from its 1-hop neighbors, so the
   distributed protocol in [Protocol] reproduces the result
   message-for-message; the integration tests assert equality.

   Steps 3-4: a dominatee adjacent to two dominators u < v is a
   candidate connector for the pair; local minima win.  Steps 5-6: for
   each ordered dominator pair (u, v) with u a dominator of w and v
   two hops from w, dominatee w is a candidate FIRST connector on a
   path u - w - x - v; pairs already joined by a common dominatee are
   skipped (dominator u hears every IamDominatee its dominatees
   broadcast, so it knows its two-hop dominator set exactly and
   announces it in one extra TwoHopDoms message).  Steps 7-8:
   dominatees of v that hear an elected first connector are candidate
   SECOND connectors; local minima win.

   The scans only ever ask which dominators a node hears, so they
   read a dominator index built once up front ([dom_off], [dom_adj]),
   whose rows average a few entries where the UDG rows average tens.

   Every pair election is 2-local around the smaller (two-hop stage)
   or first (three-hop stage) dominator u of the pair, so each pair is
   processed exactly once, entirely from u's tile, reading only the
   immutable snapshot, the index and the role array.  The kernel is
   flat: each worker domain owns growable int buffers and stamp
   arrays, the candidates of each target v are a chain of cells
   ([head.(v)], then [cell] pairs of candidate and next cell), and the
   winners go straight into the output: an installed edge sets its
   two arcs in [installed], a byte per UDG arc.  Racing writes only
   ever store the same byte, like the [connector] flags, and the CDS
   is the row filter of the UDG to the marked arcs — sorted,
   deduplicated and sealed in one pass.  So the result is the same
   for any tiling and any job count. *)
let elect_tiles ?pool ~owners csr roles (dom_off, dom_adj) =
  let module C = Netgraph.Csr in
  let n = C.node_count csr in
  let off = C.offsets csr and adj = C.targets csr in
  let connector = Array.make n false in
  let installed = Bytes.make (Array.length adj) '\000' in
  let install a b =
    Bytes.set installed (C.arc csr a b) '\001';
    Bytes.set installed (C.arc csr b a) '\001'
  in
  let mk_body () =
    (* one stamp array, stamps strictly increasing: the two-hop scan
       stamps u's two-hop dominators with [s], the three-hop scan each
       dominator it meets with the current first candidate's stamp
       (never one stamped [s]), and the second-candidate gather each
       dominatee it takes *)
    let mark = Array.make n (-1) and stamp = ref 0 in
    let head = Array.make n (-1) and cell = buf () in
    let targets = buf () and cands = buf () in
    let first = buf () and second = buf () in
    let chain v w =
      push cell w;
      push cell head.(v);
      head.(v) <- cell.len - 2
    in
    (* v's candidates into [cands], emptying v's chain *)
    let take v =
      cands.len <- 0;
      let c = ref head.(v) in
      while !c >= 0 do
        push cands cell.a.(!c);
        c := cell.a.(!c + 1)
      done;
      head.(v) <- -1
    in
    (* the local-minimum rule over [cands] into [out] *)
    let elect_into out =
      out.len <- 0;
      for i = 0 to cands.len - 1 do
        let w = cands.a.(i) in
        let wins = ref true and j = ref 0 in
        while !wins && !j < cands.len do
          let x = cands.a.(!j) in
          if x < w && C.arc csr w x >= 0 then wins := false;
          incr j
        done;
        if !wins then push out w
      done
    in
    (* steps 3-4 for the unordered pairs (u, v), owned by u = min.
       Stamps every dominator two hops from u through a dominatee
       (u itself included) and returns the stamp. *)
    let two_hop_at u =
      incr stamp;
      let s = !stamp in
      targets.len <- 0;
      cell.len <- 0;
      for k = off.(u) to off.(u + 1) - 1 do
        let w = adj.(k) in
        if roles.(w) = Mis.Dominatee then
          for i = dom_off.(w) to dom_off.(w + 1) - 1 do
            let v = dom_adj.(i) in
            if mark.(v) <> s then begin
              mark.(v) <- s;
              if v > u then push targets v
            end;
            if v > u then chain v w
          done
      done;
      for i = 0 to targets.len - 1 do
        let v = targets.a.(i) in
        take v;
        elect_into first;
        for j = 0 to first.len - 1 do
          let w = first.a.(j) in
          connector.(w) <- true;
          install u w;
          install w v
        done
      done;
      s
    in
    (* steps 5-8 for ordered pairs (u, v), owned by u.  A target v
       must not share a dominatee with u: [mark.(v) <> s].  That gate
       also rules out v = u and every v adjacent to w (each is
       stamped through w), so it stands for the paper's "v not a
       neighbor of w" test too.  A second candidate is in the rows of
       both a first connector w and v, so a merge of the two sorted
       rows finds them. *)
    let three_hop_at u s =
      targets.len <- 0;
      cell.len <- 0;
      for k = off.(u) to off.(u + 1) - 1 do
        let w = adj.(k) in
        if roles.(w) = Mis.Dominatee then begin
          incr stamp;
          let ss = !stamp in
          for k' = off.(w) to off.(w + 1) - 1 do
            let y = adj.(k') in
            for i = dom_off.(y) to dom_off.(y + 1) - 1 do
              let v = dom_adj.(i) in
              let m = mark.(v) in
              if m <> s && m <> ss then begin
                mark.(v) <- ss;
                if head.(v) < 0 then push targets v;
                chain v w
              end
            done
          done
        end
      done;
      for i = 0 to targets.len - 1 do
        let v = targets.a.(i) in
        take v;
        elect_into first;
        (* second candidates: dominatees of v next to a first
           connector, each once *)
        incr stamp;
        let ss = !stamp in
        cands.len <- 0;
        for j = 0 to first.len - 1 do
          let w = first.a.(j) in
          let k = ref off.(w) and stop = off.(w + 1) in
          let l = ref off.(v) and lstop = off.(v + 1) in
          while !k < stop && !l < lstop do
            let x = adj.(!k) and y = adj.(!l) in
            if x < y then incr k
            else if y < x then incr l
            else begin
              if mark.(x) <> ss && roles.(x) = Mis.Dominatee then begin
                mark.(x) <- ss;
                push cands x
              end;
              incr k;
              incr l
            end
          done
        done;
        elect_into second;
        for j = 0 to first.len - 1 do
          let w = first.a.(j) in
          connector.(w) <- true;
          install u w
        done;
        for j = 0 to second.len - 1 do
          let x = second.a.(j) in
          connector.(x) <- true;
          install x v;
          for l = 0 to first.len - 1 do
            let w = first.a.(l) in
            let k = C.arc csr w x in
            if k >= 0 then begin
              Bytes.set installed k '\001';
              Bytes.set installed (C.arc csr x w) '\001'
            end
          done
        done
      done
    in
    fun t ->
      Array.iter
        (fun u ->
          if roles.(u) = Mis.Dominator then three_hop_at u (two_hop_at u))
        owners.(t)
  in
  let ntiles = Array.length owners in
  (match pool with
  | Some p ->
    Obs.quiesced (fun () -> Netgraph.Pool.parallel_for p ~n:ntiles mk_body)
  | None ->
    let body = mk_body () in
    for t = 0 to ntiles - 1 do
      body t
    done);
  (connector, installed)

let find_csr ?pool ?owners csr roles =
  let owners =
    match owners with
    | Some o -> o
    | None -> [| Array.init (Netgraph.Csr.node_count csr) (fun u -> u) |]
  in
  let index =
    Obs.span "connectors.index" (fun () -> dominator_index ?pool csr roles)
  in
  let connector, installed =
    Obs.span "connectors.elect" (fun () ->
        elect_tiles ?pool ~owners csr roles index)
  in
  Obs.span "connectors.seal" (fun () ->
      {
        connector;
        cds =
          Netgraph.Csr.filter_arcs ?pool csr (fun k ->
              Bytes.get installed k <> '\000');
      })

let find g roles =
  let t = find_csr (Netgraph.Csr.of_graph g) roles in
  { connector = t.connector; cds_edges = Netgraph.Csr.edges t.cds }

(* The Alzoubi-style dominator-initiated selection: one deterministic
   path per ordered dominator pair.  Dominator u "decides the next
   node on the path" — realized here as smallest-ID choices, which is
   what a node collecting its neighbors' announcements would pick. *)
let find_alzoubi g roles =
  let n = G.node_count g in
  let connector = Array.make n false in
  let edges = Hashtbl.create 64 in
  let add_edge u v = Hashtbl.replace edges (ordered_edge u v) () in
  let doms = Mis.dominators roles in
  let pick = function [] -> None | x :: _ -> Some x (* lists are sorted *) in
  List.iter
    (fun u ->
      (* two-hop targets: dominators with a common dominatee *)
      let two_hop = Mis.two_hop_dominators g roles u in
      List.iter
        (fun v ->
          match pick (candidates_two_hop g roles u v) with
          | Some w ->
            connector.(w) <- true;
            add_edge u w;
            add_edge w v
          | None ->
            (* v is reachable in three hops only (no common dominatee):
               u picks its smallest dominatee w that can see a
               dominatee of v; w picks the smallest bridge x *)
            let w =
              pick
                (List.filter
                   (fun w ->
                     roles.(w) = Mis.Dominatee
                     && List.exists
                          (fun x ->
                            roles.(x) = Mis.Dominatee && G.has_edge g x v)
                          (G.neighbors g w))
                   (G.neighbors g u))
            in
            (match w with
            | None -> ()
            | Some w ->
              let x =
                pick
                  (List.filter
                     (fun x ->
                       roles.(x) = Mis.Dominatee && G.has_edge g x v)
                     (G.neighbors g w))
              in
              (match x with
              | None -> ()
              | Some x ->
                connector.(w) <- true;
                connector.(x) <- true;
                add_edge u w;
                add_edge w x;
                add_edge x v)))
        two_hop;
      (* three-hop-only targets do not appear in two_hop_dominators of
         u itself; enumerate them through u's dominatees' views *)
      let targets = Hashtbl.create 8 in
      List.iter
        (fun w ->
          if roles.(w) = Mis.Dominatee then
            List.iter
              (fun v ->
                if v <> u && not (List.mem v two_hop) then
                  Hashtbl.replace targets v ())
              (Mis.two_hop_dominators g roles w))
        (G.neighbors g u);
      G.sorted_tbl_iter Int.compare
        (fun v () ->
          let w =
            pick
              (List.filter
                 (fun w ->
                   roles.(w) = Mis.Dominatee
                   && List.exists
                        (fun x ->
                          roles.(x) = Mis.Dominatee && x <> w
                          && G.has_edge g x v)
                        (G.neighbors g w))
                 (G.neighbors g u))
          in
          match w with
          | None -> ()
          | Some w ->
            let x =
              pick
                (List.filter
                   (fun x ->
                     roles.(x) = Mis.Dominatee && x <> w && G.has_edge g x v)
                   (G.neighbors g w))
            in
            (match x with
            | None -> ()
            | Some x ->
              connector.(w) <- true;
              connector.(x) <- true;
              add_edge u w;
              add_edge w x;
              add_edge x v))
        targets)
    doms;
  {
    connector;
    cds_edges =
      List.sort G.compare_edge (Hashtbl.fold (fun e () acc -> e :: acc) edges []);
  }

(* Baker-Ephremides linked clusters: highest-ID gateways. *)
let find_baker g roles =
  let n = G.node_count g in
  let connector = Array.make n false in
  let edges = Hashtbl.create 64 in
  let add_edge u v = Hashtbl.replace edges (ordered_edge u v) () in
  let doms = Mis.dominators roles in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u < v then begin
            match candidates_two_hop g roles u v with
            | _ :: _ as common ->
              (* overlapping clusters: highest ID in the intersection *)
              let w = List.fold_left max (List.hd common) common in
              connector.(w) <- true;
              add_edge u w;
              add_edge w v
            | [] ->
              (* nonoverlapping: adjacent dominatee pairs, one from
                 each cluster *)
              let pairs = ref [] in
              List.iter
                (fun x ->
                  if roles.(x) = Mis.Dominatee then
                    List.iter
                      (fun y ->
                        if
                          roles.(y) = Mis.Dominatee && y <> x
                          && G.has_edge g y v
                        then pairs := (x, y) :: !pairs)
                      (G.neighbors g x))
                (G.neighbors g u);
              (match !pairs with
              | [] -> ()
              | first :: rest ->
                let better (x1, y1) (x2, y2) =
                  let s1 = x1 + y1 and s2 = x2 + y2 in
                  s1 > s2 || (s1 = s2 && max x1 y1 > max x2 y2)
                in
                let x, y =
                  List.fold_left
                    (fun best p -> if better p best then p else best)
                    first rest
                in
                connector.(x) <- true;
                connector.(y) <- true;
                add_edge u x;
                add_edge x y;
                add_edge y v)
          end)
        (List.filter (fun v -> v <> u) doms))
    doms;
  (* restrict to pairs within three hops: the nonoverlapping search
     above already only finds dominatee pairs, i.e. 3-hop paths *)
  {
    connector;
    cds_edges =
      List.sort G.compare_edge (Hashtbl.fold (fun e () acc -> e :: acc) edges []);
  }

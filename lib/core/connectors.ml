module G = Netgraph.Graph

type result = {
  connector : bool array;
  cds_edges : (int * int) list;
  two_hop_pairs : (int * int) list;
  three_hop_pairs : (int * int) list;
}

let candidates_two_hop g roles u v =
  List.filter
    (fun w -> roles.(w) = Mis.Dominatee && G.has_edge g w v)
    (G.neighbors g u)

(* The local-minimum rule over any adjacency test: a candidate wins
   when no other candidate it can hear has a smaller id. *)
let elect_by adjacent candidates =
  List.filter
    (fun w ->
      List.for_all (fun x -> x = w || (not (adjacent w x)) || w < x) candidates)
    candidates

let elect g candidates = elect_by (G.has_edge g) candidates

let ordered_edge u v = (min u v, max u v)

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

   Every step only ever asks which dominators a node hears, so the
   elections read a dominator index built once up front: row w of
   [dom_adj] is the Dominator-filtered CSR row of w, ascending.  Its
   rows average a few entries where the UDG rows average tens, and
   "is v, a dominator, adjacent to w" becomes a scan of w's row.

   Every pair election is 2-local around the smaller (two-hop stage)
   or first (three-hop stage) dominator of the pair, so each pair is
   processed exactly once, entirely from its owner's tile: candidate
   sets, gates and elections read only the immutable snapshot, the
   index and the role array.  Per-tile accumulators are merged by a
   final sort ([sort_uniq] dedups edges installed by several pairs),
   and [connector] writes race only on the identical value [true], so
   the result is the same for any tiling and any job count. *)
let find_csr ?pool ?owners csr roles =
  let module C = Netgraph.Csr in
  let n = C.node_count csr in
  let owners =
    match owners with
    | Some o -> o
    | None -> [| Array.init n (fun u -> u) |]
  in
  let ntiles = Array.length owners in
  let connector = Array.make n false in
  let edges_by_tile = Array.make ntiles [] in
  let two_by_tile = Array.make ntiles [] in
  let three_by_tile = Array.make ntiles [] in
  let elect_csr = elect_by (C.mem_edge csr) in
  (* the dominator index: row u is dom_adj.(dom_off.(u)) ..
     dom_adj.(dom_off.(u + 1) - 1) *)
  let dom_off = Array.make (n + 1) 0 in
  let count_dom k v = if roles.(v) = Mis.Dominator then k + 1 else k in
  for u = 0 to n - 1 do
    dom_off.(u + 1) <- C.fold_neighbors csr u count_dom dom_off.(u)
  done;
  let dom_adj = Array.make dom_off.(n) 0 in
  let fill k v =
    if roles.(v) = Mis.Dominator then begin
      dom_adj.(k) <- v;
      k + 1
    end
    else k
  in
  for u = 0 to n - 1 do
    ignore (C.fold_neighbors csr u fill dom_off.(u))
  done;
  (* [v] in [w]'s (ascending) dominator row *)
  let hears_dom w v =
    let i = ref dom_off.(w) and stop = dom_off.(w + 1) in
    while !i < stop && dom_adj.(!i) < v do
      incr i
    done;
    !i < stop && dom_adj.(!i) = v
  in
  (* dominatees adjacent to both u and v (v a dominator) — off u's
     CSR row, ascending *)
  let common_dominatees u v =
    List.rev
      (C.fold_neighbors csr u
         (fun acc w ->
           if roles.(w) = Mis.Dominatee && hears_dom w v then w :: acc
           else acc)
         [])
  in
  let mk_body () =
    (* stamped scratch, one set per worker domain: [mark] stamps every
       dominator that shares a dominatee with u, [seen] dedups two-hop
       dominators per w, and [cands] holds the first-connector
       candidates per target v while u is processed *)
    let mark = Array.make n (-1) and mstamp = ref 0 in
    let seen = Array.make n (-1) and sstamp = ref 0 in
    let cands = Array.make n [] in
    let edges = ref [] and two = ref [] and three = ref [] in
    (* steps 3-4 for the unordered pairs (u, v), owned by u = min.
       Stamps every dominator two hops from u through a dominatee
       (u itself included) and returns the stamp. *)
    let two_hop_at u =
      incr mstamp;
      let s = !mstamp in
      C.iter_neighbors csr u (fun w ->
          if roles.(w) = Mis.Dominatee then
            for i = dom_off.(w) to dom_off.(w + 1) - 1 do
              let v = dom_adj.(i) in
              if mark.(v) <> s then begin
                mark.(v) <- s;
                if v > u then begin
                  two := (u, v) :: !two;
                  List.iter
                    (fun w' ->
                      connector.(w') <- true;
                      edges := ordered_edge u w' :: ordered_edge w' v :: !edges)
                    (elect_csr (common_dominatees u v))
                end
              end
            done);
      s
    in
    (* steps 5-8 for ordered pairs (u, v), owned by u.  A target v
       must not share a dominatee with u: [mark.(v) <> s].  That gate
       also rules out v = u and every v adjacent to w (each is
       stamped through w), so it stands for the paper's "v not a
       neighbor of w" test too. *)
    let three_hop_at u s =
      let targets = ref [] in
      C.iter_neighbors csr u (fun w ->
          if roles.(w) = Mis.Dominatee then begin
            incr sstamp;
            let ss = !sstamp in
            C.iter_neighbors csr w (fun y ->
                for i = dom_off.(y) to dom_off.(y + 1) - 1 do
                  let v = dom_adj.(i) in
                  if mark.(v) <> s && seen.(v) <> ss then begin
                    seen.(v) <- ss;
                    (match cands.(v) with
                    | [] -> targets := v :: !targets
                    | _ :: _ -> ());
                    cands.(v) <- w :: cands.(v)
                  end
                done)
          end);
      List.iter
        (fun v ->
          three := (u, v) :: !three;
          let first = elect_csr cands.(v) in
          cands.(v) <- [];
          let second_cands =
            List.sort_uniq Int.compare
              (List.concat_map
                 (fun w ->
                   C.fold_neighbors csr w
                     (fun acc x ->
                       if
                         roles.(x) = Mis.Dominatee && hears_dom x v && x <> w
                       then x :: acc
                       else acc)
                     [])
                 first)
          in
          let second = elect_csr second_cands in
          List.iter
            (fun w ->
              connector.(w) <- true;
              edges := ordered_edge u w :: !edges)
            first;
          List.iter
            (fun x ->
              connector.(x) <- true;
              edges := ordered_edge x v :: !edges;
              List.iter
                (fun w ->
                  if C.mem_edge csr w x then edges := ordered_edge w x :: !edges)
                first)
            second)
        (List.sort Int.compare !targets)
    in
    fun t ->
      edges := [];
      two := [];
      three := [];
      Array.iter
        (fun u ->
          if roles.(u) = Mis.Dominator then three_hop_at u (two_hop_at u))
        owners.(t);
      edges_by_tile.(t) <- !edges;
      two_by_tile.(t) <- !two;
      three_by_tile.(t) <- !three
  in
  (match pool with
  | Some p ->
    Obs.quiesced (fun () -> Netgraph.Pool.parallel_for p ~n:ntiles mk_body)
  | None ->
    let body = mk_body () in
    for t = 0 to ntiles - 1 do
      body t
    done);
  let concat_of by_tile = List.concat (Array.to_list by_tile) in
  {
    connector;
    cds_edges = List.sort_uniq G.compare_edge (concat_of edges_by_tile);
    two_hop_pairs = List.sort G.compare_edge (concat_of two_by_tile);
    three_hop_pairs = List.sort G.compare_edge (concat_of three_by_tile);
  }

let find g roles = find_csr (Netgraph.Csr.of_graph g) roles

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
  let two_hop_pairs = ref [] in
  let three_hop_pairs = ref [] in
  let pick = function [] -> None | x :: _ -> Some x (* lists are sorted *) in
  List.iter
    (fun u ->
      (* two-hop targets: dominators with a common dominatee *)
      let two_hop = Mis.two_hop_dominators g roles u in
      List.iter
        (fun v ->
          match pick (candidates_two_hop g roles u v) with
          | Some w ->
            if u < v then two_hop_pairs := (u, v) :: !two_hop_pairs;
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
                three_hop_pairs := (u, v) :: !three_hop_pairs;
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
              three_hop_pairs := (u, v) :: !three_hop_pairs;
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
      List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges []);
    two_hop_pairs = List.sort compare !two_hop_pairs;
    three_hop_pairs = List.sort_uniq compare !three_hop_pairs;
  }

(* Baker-Ephremides linked clusters: highest-ID gateways. *)
let find_baker g roles =
  let n = G.node_count g in
  let connector = Array.make n false in
  let edges = Hashtbl.create 64 in
  let add_edge u v = Hashtbl.replace edges (ordered_edge u v) () in
  let doms = Mis.dominators roles in
  let two_hop_pairs = ref [] in
  let three_hop_pairs = ref [] in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u < v then begin
            match candidates_two_hop g roles u v with
            | _ :: _ as common ->
              (* overlapping clusters: highest ID in the intersection *)
              let w = List.fold_left max (List.hd common) common in
              two_hop_pairs := (u, v) :: !two_hop_pairs;
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
                three_hop_pairs := (u, v) :: !three_hop_pairs;
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
      List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges []);
    two_hop_pairs = List.sort compare !two_hop_pairs;
    three_hop_pairs = List.sort_uniq compare !three_hop_pairs;
  }

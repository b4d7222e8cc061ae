module G = Netgraph.Graph
module P = Geometry.Point
module E = Distsim.Engine

type position = Single | First | Second

type msg =
  | Hello of P.t
  | IamDominator
  | IamDominatee of int
  | TwoHopDoms of int list
  | TryConnector of (int * int) * position
  | IamConnector of (int * int) * position
  | Status of bool
  | Proposal of (int * int * int)
  | Accept of (int * int * int)
  | Reject of (int * int * int)
  | ShareTriangles of (int * int * int) list * (int * int) list
  | RemainingTriangles of (int * int * int) list
  | NeighborTable of (int * P.t) list
      (* my backbone neighbors with positions: one broadcast gives
         everyone its 2-hop backbone view *)

let classify = function
  | Hello _ -> "Hello"
  | IamDominator -> "IamDominator"
  | IamDominatee _ -> "IamDominatee"
  | TwoHopDoms _ -> "TwoHopDoms"
  | TryConnector _ -> "TryConnector"
  | IamConnector _ -> "IamConnector"
  | Status _ -> "Status"
  | Proposal _ -> "Proposal"
  | Accept _ -> "Accept"
  | Reject _ -> "Reject"
  | ShareTriangles _ -> "ShareTriangles"
  | RemainingTriangles _ -> "RemainingTriangles"
  | NeighborTable _ -> "NeighborTable"

module IntSet = Set.Make (Int)

(* Monomorphic comparators, ordering exactly as the polymorphic
   [compare] does (lexicographic; constructors in declaration order);
   pairs use [G.compare_edge]. *)
let compare_tri (a1, b1, c1) (a2, b2, c2) =
  let c = Int.compare a1 a2 in
  if c <> 0 then c
  else
    let c = Int.compare b1 b2 in
    if c <> 0 then c else Int.compare c1 c2

let position_rank = function Single -> 0 | First -> 1 | Second -> 2

module TriSet = Set.Make (struct
  type t = int * int * int

  let compare = compare_tri
end)

module KeyMap = Map.Make (struct
  type t = (int * int) * position

  let compare (p1, pos1) (p2, pos2) =
    let c = G.compare_edge p1 p2 in
    if c <> 0 then c
    else Int.compare (position_rank pos1) (position_rank pos2)
end)

module PairSet = Set.Make (struct
  type t = int * int

  let compare = G.compare_edge
end)

let ordered_edge u v = (min u v, max u v)

(* ------------------------------------------------------------------ *)
(* Phase 1: clustering                                                  *)
(* ------------------------------------------------------------------ *)

type cluster_state = {
  mutable status : [ `White | `Dominator | `Dominatee ];
  mutable smaller_white : IntSet.t;
      (* undecided neighbors with a smaller id than mine: the only ones
         the smallest-ID rule waits for *)
  mutable my_dominators : IntSet.t;
  mutable nbr_dominators : (int * int) list;  (* (neighbor, its dominator) *)
  mutable nbr_pos : (int * P.t) list;
}

let cluster_protocol points =
  let init me nbrs =
    {
      status = `White;
      smaller_white = IntSet.of_list (List.filter (fun v -> v < me) nbrs);
      my_dominators = IntSet.empty;
      nbr_dominators = [];
      nbr_pos = [];
    }
  in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    if ctx.E.round = 0 then ctx.E.broadcast (Hello points.(me));
    let decided from =
      if from < me then st.smaller_white <- IntSet.remove from st.smaller_white
    in
    let new_dominators = ref [] in
    List.iter
      (fun { E.from; msg } ->
        match msg with
        | Hello p -> st.nbr_pos <- (from, p) :: st.nbr_pos
        | IamDominator ->
          decided from;
          if not (IntSet.mem from st.my_dominators) then begin
            st.my_dominators <- IntSet.add from st.my_dominators;
            if st.status <> `Dominator then begin
              st.status <- `Dominatee;
              new_dominators := from :: !new_dominators
            end
          end
        | IamDominatee d ->
          decided from;
          st.nbr_dominators <- (from, d) :: st.nbr_dominators
        | TwoHopDoms _ | TryConnector _ | IamConnector _ | Status _
        | Proposal _ | Accept _ | Reject _ | ShareTriangles _
        | RemainingTriangles _ | NeighborTable _ ->
          ())
      inbox;
    (* smallest-ID rule: claim dominatorship once no undecided
       neighbor has a smaller id (from round 1 on, when ids have
       certainly been exchanged) *)
    if
      ctx.E.round >= 1 && st.status = `White
      && IntSet.is_empty st.smaller_white
    then begin
      st.status <- `Dominator;
      ctx.E.broadcast IamDominator
    end;
    List.iter
      (fun d -> ctx.E.broadcast (IamDominatee d))
      (List.rev !new_dominators);
    st
  in
  { E.init; E.on_round = on_round }

(* ------------------------------------------------------------------ *)
(* Phase 2: connectors (Algorithm 1)                                    *)
(* ------------------------------------------------------------------ *)

(* Election schedule in engine rounds: Single/First candidacies are
   announced in round 0 and decided in round 1 (all rival
   announcements arrive together, synchronously); elected First
   connectors announce in round 1, which triggers Second candidacies
   in round 2, decided in round 3. *)
type conn_state = {
  c_role : [ `Dominator | `Dominatee ];
  c_dominators : int list;
  c_two_hop : int list;
  c_two_hop_as_dominator : int list;
      (* as a dominator: the two-hop dominators joined to me by a
         common dominatee (for the TwoHopDoms announcement) *)
  mutable c_is_connector : bool;
  mutable c_candidacies : ((int * int) * position) list;
  mutable c_elected : ((int * int) * position) list;
  mutable c_least_rival : int KeyMap.t;
      (* least id heard claiming each election key: I win a key iff
         my id is below it *)
  mutable c_heard_first : int list KeyMap.t;
  mutable c_second_claimed : PairSet.t;
  c_dom_two_hop : (int, IntSet.t) Hashtbl.t;
      (* dominator -> its announced two-hop dominator set *)
  mutable c_edges : (int * int) list;
}

let connectors_protocol (cluster : cluster_state array) =
  let init me nbrs =
    let st = cluster.(me) in
    let nbr_set = IntSet.of_list nbrs in
    {
      c_role = (if st.status = `Dominator then `Dominator else `Dominatee);
      c_dominators = IntSet.elements st.my_dominators;
      c_two_hop =
        List.sort_uniq compare
          (List.filter_map
             (fun (_, d) ->
               if d <> me && not (IntSet.mem d nbr_set) then Some d else None)
             st.nbr_dominators);
      c_two_hop_as_dominator =
        (if st.status <> `Dominator then []
         else
           List.sort_uniq compare
             (List.filter_map
                (fun (_, d) -> if d <> me then Some d else None)
                st.nbr_dominators));
      c_is_connector = false;
      c_candidacies = [];
      c_elected = [];
      c_least_rival = KeyMap.empty;
      c_heard_first = KeyMap.empty;
      c_second_claimed = PairSet.empty;
      c_dom_two_hop = Hashtbl.create 8;
      c_edges = [];
    }
  in
  let add_edge st u v = st.c_edges <- ordered_edge u v :: st.c_edges in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    List.iter
      (fun { E.from; msg } ->
        match msg with
        | TwoHopDoms doms ->
          Hashtbl.replace st.c_dom_two_hop from (IntSet.of_list doms)
        | TryConnector (pair, pos) -> (
          let key = (pair, pos) in
          match KeyMap.find_opt key st.c_least_rival with
          | Some least when least <= from -> ()
          | _ -> st.c_least_rival <- KeyMap.add key from st.c_least_rival)
        | IamConnector ((u, v), Single) ->
          if me = u || me = v then add_edge st me from
        | IamConnector ((u, v), First) ->
          if me = u then add_edge st me from;
          if st.c_role = `Dominatee && List.mem v st.c_dominators then begin
            st.c_heard_first <-
              KeyMap.update ((u, v), First)
                (fun prev -> Some (from :: Option.value ~default:[] prev))
                st.c_heard_first;
            if not (PairSet.mem (u, v) st.c_second_claimed) then begin
              st.c_second_claimed <- PairSet.add (u, v) st.c_second_claimed;
              st.c_candidacies <- ((u, v), Second) :: st.c_candidacies;
              ctx.E.broadcast (TryConnector ((u, v), Second))
            end
          end
        | IamConnector ((u, v), Second) ->
          if me = v then add_edge st me from;
          if List.mem ((u, v), First) st.c_elected then add_edge st me from
        | Hello _ | IamDominator | IamDominatee _ | Status _ | Proposal _
        | Accept _ | Reject _ | ShareTriangles _ | RemainingTriangles _
        | NeighborTable _ ->
          ())
      inbox;
    (* round 0: dominators announce their two-hop dominator sets (one
       message, derived from the IamDominatee broadcasts they heard);
       dominatees announce their two-hop-pair candidacies *)
    if ctx.E.round = 0 then begin
      match st.c_role with
      | `Dominator ->
        ctx.E.broadcast (TwoHopDoms st.c_two_hop_as_dominator)
      | `Dominatee ->
        List.iter
          (fun u ->
            List.iter
              (fun v ->
                if u < v then begin
                  st.c_candidacies <- ((u, v), Single) :: st.c_candidacies;
                  ctx.E.broadcast (TryConnector ((u, v), Single))
                end)
              st.c_dominators)
          st.c_dominators
    end;
    (* round 1: with the dominators' two-hop sets in hand, dominatees
       announce first-leg candidacies only for pairs that no common
       dominatee already joins *)
    if ctx.E.round = 1 && st.c_role = `Dominatee then
      List.iter
        (fun u ->
          let joined_by_common =
            match Hashtbl.find_opt st.c_dom_two_hop u with
            | Some s -> fun v -> IntSet.mem v s
            | None -> fun _ -> false
          in
          List.iter
            (fun v ->
              if not (joined_by_common v) then begin
                st.c_candidacies <- ((u, v), First) :: st.c_candidacies;
                ctx.E.broadcast (TryConnector ((u, v), First))
              end)
            st.c_two_hop)
        st.c_dominators;
    (* elections on schedule *)
    let due pos =
      match (ctx.E.round, pos) with
      | 1, Single -> true
      | 2, First -> true
      | 4, Second -> true
      | _ -> false
    in
    let decided, pending =
      List.partition (fun (_, pos) -> due pos) st.c_candidacies
    in
    st.c_candidacies <- pending;
    List.iter
      (fun ((pair, pos) as key) ->
        let wins =
          match KeyMap.find_opt key st.c_least_rival with
          | Some least -> me < least
          | None -> true
        in
        if wins then begin
          st.c_is_connector <- true;
          st.c_elected <- key :: st.c_elected;
          ctx.E.broadcast (IamConnector (pair, pos));
          let u, v = pair in
          match pos with
          | Single ->
            add_edge st u me;
            add_edge st me v
          | First -> add_edge st u me
          | Second ->
            add_edge st me v;
            List.iter
              (fun w -> add_edge st w me)
              (Option.value ~default:[]
                 (KeyMap.find_opt (pair, First) st.c_heard_first))
        end)
      decided;
    st
  in
  { E.init; E.on_round = on_round }

(* ------------------------------------------------------------------ *)
(* Phase 3: status broadcast (induces ICDS at no further cost)          *)
(* ------------------------------------------------------------------ *)

type status_state = {
  s_backbone : bool;
  mutable s_bb_nbrs : IntSet.t;  (* backbone neighbors *)
}

let status_protocol (backbone : bool array) =
  let init me _ = { s_backbone = backbone.(me); s_bb_nbrs = IntSet.empty } in
  let on_round ctx st inbox =
    List.iter
      (fun { E.from; msg } ->
        match msg with
        | Status true -> st.s_bb_nbrs <- IntSet.add from st.s_bb_nbrs
        | _ -> ())
      inbox;
    if ctx.E.round = 0 then ctx.E.broadcast (Status st.s_backbone);
    st
  in
  { E.init; E.on_round = on_round }

(* ------------------------------------------------------------------ *)
(* Phase 4: localized Delaunay on ICDS (Algorithms 2 and 3)             *)
(* ------------------------------------------------------------------ *)

type ldel_state = {
  l_backbone : bool;
  l_bb_nbrs : (int * P.t) list;  (* ICDS neighbors with positions *)
  l_local_tris : TriSet.t;  (* incident triangles of Del(N1(me)) *)
  l_gabriel : (int * int) list;  (* incident Gabriel edges of ICDS *)
  mutable l_responded : TriSet.t;  (* proposals answered (or sent) *)
  l_endorsements : (int * int * int, IntSet.t) Hashtbl.t;
  mutable l_accepted : TriSet.t;  (* incident accepted triangles *)
  mutable l_known : TriSet.t;  (* triangles heard in gossip *)
  l_remaining_of : (int, TriSet.t) Hashtbl.t;
  mutable l_my_remaining : TriSet.t;
  mutable l_kept : TriSet.t;
}

let pi_third = (Float.pi /. 3.) -. 1e-12

let angle_at points_of (a, b, c) ~at =
  let other =
    List.filter (fun v -> v <> at) [ a; b; c ]
  in
  match other with
  | [ x; y ] -> P.angle (points_of x) (points_of at) (points_of y)
  | _ -> invalid_arg "angle_at: corner not in triangle"

let ldel_protocol (status : status_state array)
    (cluster : cluster_state array) points ~radius =
  let init me _nbrs =
    let backbone = status.(me).s_backbone in
    let bb_nbrs =
      if not backbone then []
      else
        List.filter
          (fun (v, _) -> IntSet.mem v status.(me).s_bb_nbrs)
          cluster.(me).nbr_pos
        |> List.sort_uniq compare
    in
    let local_tris =
      if backbone then
        TriSet.of_list
          (Ldel.local_triangles_of_neighborhood ~me ~me_pos:points.(me)
             ~nbrs:bb_nbrs)
      else TriSet.empty
    in
    (* Gabriel test from purely local data: a blocker of edge (me, v)
       lies within |me v| <= radius of me, hence among my ICDS
       neighbors. *)
    let gabriel =
      List.filter_map
        (fun (v, pv) ->
          let blocked =
            List.exists
              (fun (w, pw) ->
                w <> v && Geometry.Circle.in_diametral points.(me) pv pw)
              bb_nbrs
          in
          if blocked then None else Some (ordered_edge me v))
        bb_nbrs
    in
    {
      l_backbone = backbone;
      l_bb_nbrs = bb_nbrs;
      l_local_tris = local_tris;
      l_gabriel = gabriel;
      l_responded = TriSet.empty;
      l_endorsements = Hashtbl.create 16;
      l_accepted = TriSet.empty;
      l_known = TriSet.empty;
      l_remaining_of = Hashtbl.create 8;
      l_my_remaining = TriSet.empty;
      l_kept = TriSet.empty;
    }
  in
  let endorse st t from =
    let prev =
      Option.value ~default:IntSet.empty (Hashtbl.find_opt st.l_endorsements t)
    in
    Hashtbl.replace st.l_endorsements t (IntSet.add from prev)
  in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    (* a node off the backbone is a corner of no triangle and reads
       none of the gossip, so it ignores its inbox *)
    if st.l_backbone then begin
      let corner_of (a, b, c) = me = a || me = b || me = c in
      List.iter
        (fun { E.from; msg } ->
          match msg with
          | Proposal t ->
            endorse st t from;
            if corner_of t && not (TriSet.mem t st.l_responded) then begin
              st.l_responded <- TriSet.add t st.l_responded;
              if TriSet.mem t st.l_local_tris then ctx.E.broadcast (Accept t)
              else ctx.E.broadcast (Reject t)
            end
          | Accept t -> endorse st t from
          | Reject _ -> ()
          | ShareTriangles (tris, _gabriel) ->
            List.iter (fun t -> st.l_known <- TriSet.add t st.l_known) tris
          | RemainingTriangles tris ->
            Hashtbl.replace st.l_remaining_of from (TriSet.of_list tris)
          | Hello _ | IamDominator | IamDominatee _ | TwoHopDoms _
          | TryConnector _ | IamConnector _ | Status _ | NeighborTable _ ->
            ())
        inbox;
      (* round 0: proposals for well-shaped incident triangles *)
      if ctx.E.round = 0 then
        TriSet.iter
          (fun t ->
            if
              Ldel.triangle_fits points ~radius t
              && angle_at (fun v -> points.(v)) t ~at:me >= pi_third
            then begin
              ctx.E.broadcast (Proposal t);
              endorse st t me;
              st.l_responded <- TriSet.add t st.l_responded
            end)
          st.l_local_tris;
      (* round 2: all proposals and responses are in; settle
         acceptance and start the planarization gossip *)
      if ctx.E.round = 2 then begin
        TriSet.iter
          (fun ((a, b, c) as t) ->
            if TriSet.mem t st.l_local_tris then begin
              let endorsers =
                Option.value ~default:IntSet.empty
                  (Hashtbl.find_opt st.l_endorsements t)
              in
              (* my own endorsement is implicit in l_local_tris *)
              let endorsers = IntSet.add me endorsers in
              if
                IntSet.mem a endorsers && IntSet.mem b endorsers
                && IntSet.mem c endorsers
                && Ldel.triangle_fits points ~radius t
              then st.l_accepted <- TriSet.add t st.l_accepted
            end)
          st.l_local_tris;
        (* drop triangles nobody proposed: acceptance needs a proposal *)
        st.l_accepted <-
          TriSet.filter (fun t -> TriSet.mem t st.l_responded) st.l_accepted;
        if st.l_bb_nbrs <> [] then
          ctx.E.broadcast
            (ShareTriangles (TriSet.elements st.l_accepted, st.l_gabriel))
      end;
      (* round 3: apply the removal rule and gossip survivors; pairs
         whose boxes are disjoint are decided by the same exact
         prefilter [Ldel.build_csr] applies *)
      if ctx.E.round = 3 then begin
        let known =
          Array.of_list (TriSet.elements (TriSet.union st.l_known st.l_accepted))
        in
        let boxes = Array.map (Ldel.triangle_bbox points) known in
        st.l_my_remaining <-
          TriSet.filter
            (fun t1 ->
              let b1 = Ldel.triangle_bbox points t1 in
              not
                (Array.exists2
                   (fun t2 b2 ->
                     Geometry.Bbox.overlaps b1 b2
                     && compare_tri t2 t1 <> 0
                     && Ldel.triangles_intersect points t1 t2
                     && Ldel.circumcircle_contains_corner points t1 t2)
                   known boxes))
            st.l_accepted;
        if st.l_bb_nbrs <> [] then
          ctx.E.broadcast
            (RemainingTriangles (TriSet.elements st.l_my_remaining))
      end;
      (* round 4: keep a triangle only if all three corners kept it *)
      if ctx.E.round = 4 then
        st.l_kept <-
          TriSet.filter
            (fun (a, b, c) ->
              List.for_all
                (fun v ->
                  v = me
                  ||
                  match Hashtbl.find_opt st.l_remaining_of v with
                  | Some s -> TriSet.mem (a, b, c) s
                  | None -> false)
                [ a; b; c ])
            st.l_my_remaining
    end;
    st
  in
  { E.init; E.on_round = on_round }

(* ------------------------------------------------------------------ *)
(* Alternative planarization: LDel^2 (no removal phase needed)          *)
(* ------------------------------------------------------------------ *)

(* With 2-hop neighborhoods the accepted triangles are planar outright
   (Li et al.), so Algorithm 3's two gossip rounds disappear; the price
   is one NeighborTable broadcast per node to assemble N_2. *)
type ldel2_state = {
  l2_backbone : bool;
  l2_bb_nbrs : (int * P.t) list;
  l2_two_hop : (int, (int * P.t) list) Hashtbl.t;
      (* neighbor -> its backbone neighbor table *)
  mutable l2_local_tris : TriSet.t;
  l2_gabriel : (int * int) list;
  mutable l2_responded : TriSet.t;
  l2_endorsements : (int * int * int, IntSet.t) Hashtbl.t;
  mutable l2_accepted : TriSet.t;
}

let ldel2_protocol (status : status_state array)
    (cluster : cluster_state array) points ~radius =
  let init me _nbrs =
    let backbone = status.(me).s_backbone in
    let bb_nbrs =
      if not backbone then []
      else
        List.filter
          (fun (v, _) -> IntSet.mem v status.(me).s_bb_nbrs)
          cluster.(me).nbr_pos
        |> List.sort_uniq compare
    in
    let gabriel =
      List.filter_map
        (fun (v, pv) ->
          let blocked =
            List.exists
              (fun (w, pw) ->
                w <> v && Geometry.Circle.in_diametral points.(me) pv pw)
              bb_nbrs
          in
          if blocked then None else Some (ordered_edge me v))
        bb_nbrs
    in
    {
      l2_backbone = backbone;
      l2_bb_nbrs = bb_nbrs;
      l2_two_hop = Hashtbl.create 8;
      l2_local_tris = TriSet.empty;
      l2_gabriel = gabriel;
      l2_responded = TriSet.empty;
      l2_endorsements = Hashtbl.create 16;
      l2_accepted = TriSet.empty;
    }
  in
  let endorse st t from =
    let prev =
      Option.value ~default:IntSet.empty (Hashtbl.find_opt st.l2_endorsements t)
    in
    Hashtbl.replace st.l2_endorsements t (IntSet.add from prev)
  in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    (* as in [ldel_protocol], nodes off the backbone ignore their inbox *)
    if st.l2_backbone then begin
      let corner_of (a, b, c) = me = a || me = b || me = c in
      List.iter
        (fun { E.from; msg } ->
          match msg with
          | NeighborTable tbl -> Hashtbl.replace st.l2_two_hop from tbl
          | Proposal t ->
            endorse st t from;
            if corner_of t && not (TriSet.mem t st.l2_responded) then begin
              st.l2_responded <- TriSet.add t st.l2_responded;
              if TriSet.mem t st.l2_local_tris then ctx.E.broadcast (Accept t)
              else ctx.E.broadcast (Reject t)
            end
          | Accept t -> endorse st t from
          | _ -> ())
        inbox;
      (* round 0: publish my backbone neighbor table *)
      if ctx.E.round = 0 && st.l2_bb_nbrs <> [] then
        ctx.E.broadcast (NeighborTable st.l2_bb_nbrs);
      (* round 1: N_2 assembled; compute Del(N_2(me)) and propose *)
      if ctx.E.round = 1 then begin
        let two_hop = Hashtbl.create 16 in
        List.iter
          (fun (v, pv) ->
            Hashtbl.replace two_hop v pv;
            List.iter
              (fun (w, pw) -> if w <> me then Hashtbl.replace two_hop w pw)
              (Option.value ~default:[] (Hashtbl.find_opt st.l2_two_hop v)))
          st.l2_bb_nbrs;
        let nbrs =
          List.sort_uniq compare
            (Hashtbl.fold (fun v pv acc -> (v, pv) :: acc) two_hop [])
        in
        st.l2_local_tris <-
          TriSet.of_list
            (Ldel.local_triangles_of_neighborhood ~me ~me_pos:points.(me)
               ~nbrs);
        TriSet.iter
          (fun t ->
            if
              Ldel.triangle_fits points ~radius t
              && angle_at (fun v -> points.(v)) t ~at:me >= pi_third
            then begin
              ctx.E.broadcast (Proposal t);
              endorse st t me;
              st.l2_responded <- TriSet.add t st.l2_responded
            end)
          st.l2_local_tris
      end;
      (* round 3: settle acceptance *)
      if ctx.E.round = 3 then
        TriSet.iter
          (fun ((a, b, c) as t) ->
            let endorsers =
              IntSet.add me
                (Option.value ~default:IntSet.empty
                   (Hashtbl.find_opt st.l2_endorsements t))
            in
            if
              TriSet.mem t st.l2_responded
              && IntSet.mem a endorsers && IntSet.mem b endorsers
              && IntSet.mem c endorsers
              && Ldel.triangle_fits points ~radius t
            then st.l2_accepted <- TriSet.add t st.l2_accepted)
          st.l2_local_tris
    end;
    st
  in
  { E.init; E.on_round = on_round }

(* ------------------------------------------------------------------ *)
(* Assembly                                                             *)
(* ------------------------------------------------------------------ *)

type result = {
  roles : Mis.role array;
  connector : bool array;
  cds_edges : (int * int) list;
  icds_edges : (int * int) list;
  ldel_triangles : (int * int * int) list;
  kept_triangles : (int * int * int) list;
  gabriel_edges : (int * int) list;
  ldel_graph : G.t;
  stats_cluster : E.stats;
  stats_connector : E.stats;
  stats_status : E.stats;
  stats_ldel : E.stats;
}

type ldel2_result = {
  l2_triangles : (int * int * int) list;
  l2_gabriel_edges : (int * int) list;
  l2_graph : G.t;
  l2_stats : E.stats;
}

let cds_stats r = E.merge r.stats_cluster r.stats_connector
let icds_stats r = E.merge (cds_stats r) r.stats_status
let ldel_stats r = E.merge (icds_stats r) r.stats_ldel

(* the message-passing phases of [run], in execution order; these are
   the span names under "protocol", so trace events recorded during
   phase [p] carry the phase label "protocol/<p>" *)
let phase_cluster = "cluster"
let phase_connectors = "connectors"
let phase_status = "status"
let phase_ldel = "ldel"
let phases = [ phase_cluster; phase_connectors; phase_status; phase_ldel ]

let run points ~radius =
  Obs.span "protocol" @@ fun () ->
  let udg = Obs.span "udg" (fun () -> Wireless.Udg.build points ~radius) in
  let n = Array.length points in
  let cluster, stats_cluster =
    Obs.span phase_cluster (fun () ->
        E.run ~classify udg (cluster_protocol points))
  in
  let roles =
    Array.map
      (fun st ->
        match st.status with
        | `Dominator -> Mis.Dominator
        | `Dominatee -> Mis.Dominatee
        | `White -> assert false (* the clustering fixpoint colors every node *))
      cluster
  in
  let conn, stats_connector =
    Obs.span phase_connectors (fun () ->
        E.run ~classify udg (connectors_protocol cluster))
  in
  let connector = Array.map (fun st -> st.c_is_connector) conn in
  let cds_edges =
    List.sort_uniq compare
      (Array.to_list conn |> List.concat_map (fun st -> st.c_edges))
  in
  let backbone =
    Array.init n (fun u -> roles.(u) = Mis.Dominator || connector.(u))
  in
  let status, stats_status =
    Obs.span phase_status (fun () ->
        E.run ~classify udg (status_protocol backbone))
  in
  let icds_edges =
    let acc = ref [] in
    Array.iteri
      (fun u st ->
        if st.s_backbone then
          IntSet.iter
            (fun v -> if u < v then acc := (u, v) :: !acc)
            st.s_bb_nbrs)
      status;
    List.sort compare !acc
  in
  let ldel, stats_ldel =
    Obs.span phase_ldel (fun () ->
        (* rounds 0-4 of the schedule run even when no triangle is
           proposed: every backbone node still gossips its (empty)
           triangle sets in rounds 2 and 3 *)
        E.run ~min_rounds:5 ~classify udg
          (ldel_protocol status cluster points ~radius))
  in
  let ldel_triangles =
    List.sort_uniq compare
      (Array.to_list ldel
      |> List.concat_map (fun st -> TriSet.elements st.l_accepted))
  in
  let kept_triangles =
    (* a triangle survives when every corner kept it; corners compute
       the same predicate, so collecting any corner's view suffices —
       take the intersection-by-unanimity *)
    List.sort_uniq compare
      (Array.to_list ldel |> List.concat_map (fun st -> TriSet.elements st.l_kept))
    |> List.filter (fun (a, b, c) ->
           List.for_all
             (fun v -> TriSet.mem (a, b, c) ldel.(v).l_kept)
             [ a; b; c ])
  in
  let gabriel_edges =
    List.sort_uniq compare
      (Array.to_list ldel |> List.concat_map (fun st -> st.l_gabriel))
  in
  let ldel_graph =
    let g = G.create n in
    List.iter (fun (u, v) -> G.add_edge g u v) gabriel_edges;
    List.iter
      (fun (a, b, c) ->
        G.add_edge g a b;
        G.add_edge g b c;
        G.add_edge g a c)
      kept_triangles;
    g
  in
  {
    roles;
    connector;
    cds_edges;
    icds_edges;
    ldel_triangles;
    kept_triangles;
    gabriel_edges;
    ldel_graph;
    stats_cluster;
    stats_connector;
    stats_status;
    stats_ldel;
  }


(* The LDel^2 pipeline variant: same clustering/connector/status
   phases, then the 2-hop localized Delaunay with no planarization
   gossip.  Returns only the final planar backbone pieces; tested
   against the centralized Ldel.build_k ~k:2 over ICDS. *)
let run_ldel2 points ~radius =
  let udg = Wireless.Udg.build points ~radius in
  let cluster, _ = E.run ~classify udg (cluster_protocol points) in
  let conn, _ = E.run ~classify udg (connectors_protocol cluster) in
  let n = Array.length points in
  let roles =
    Array.map
      (fun st ->
        match st.status with
        | `Dominator -> Mis.Dominator
        | `Dominatee -> Mis.Dominatee
        | `White -> assert false (* the clustering fixpoint colors every node *))
      cluster
  in
  let backbone =
    Array.init n (fun u ->
        roles.(u) = Mis.Dominator || conn.(u).c_is_connector)
  in
  let status, _ = E.run ~classify udg (status_protocol backbone) in
  let ldel2, l2_stats =
    E.run ~classify udg (ldel2_protocol status cluster points ~radius)
  in
  let l2_triangles =
    List.sort_uniq compare
      (Array.to_list ldel2
      |> List.concat_map (fun st -> TriSet.elements st.l2_accepted))
    |> List.filter (fun (a, b, c) ->
           List.for_all
             (fun v -> TriSet.mem (a, b, c) ldel2.(v).l2_accepted)
             [ a; b; c ])
  in
  let l2_gabriel_edges =
    List.sort_uniq compare
      (Array.to_list ldel2 |> List.concat_map (fun st -> st.l2_gabriel))
  in
  let l2_graph =
    let g = G.create n in
    List.iter (fun (u, v) -> G.add_edge g u v) l2_gabriel_edges;
    List.iter
      (fun (a, b, c) ->
        G.add_edge g a b;
        G.add_edge g b c;
        G.add_edge g a c)
      l2_triangles;
    g
  in
  { l2_triangles; l2_gabriel_edges; l2_graph; l2_stats }

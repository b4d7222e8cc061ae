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

(* Protocol tables are keyed by packed ints.  Node ids fit [id_bits]
   bits ([run] checks), so a triangle packs into one non-negative int
   whose integer order is the lexicographic order of its corners, and
   an election key is a pair with the position's rank below it. *)
let id_bits = 20
let max_nodes = 1 lsl id_bits
let id_mask = max_nodes - 1
let pack_tri (a, b, c) = (((a lsl id_bits) lor b) lsl id_bits) lor c

let unpack_tri k =
  (k lsr (2 * id_bits), (k lsr id_bits) land id_mask, k land id_mask)

let position_rank = function Single -> 0 | First -> 1 | Second -> 2

let election_key (u, v) pos =
  (((u lsl id_bits) lor v) lsl 2) lor position_rank pos

module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Hashtbl.Make buckets by the low bits: mix the high ones down *)
  let hash k =
    let h = k * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end)

(* [by_id] orders (id, position) entries by id alone: a node id always
   comes with the same position. *)
let by_id ((a : int), _) ((b : int), _) = Int.compare a b
let ordered_edge u v = (Int.min u v, Int.max u v)

(* index of [v] in the ascending [row], or -1 *)
let row_index (row : int array) v =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let w = row.(mid) in
      if w = v then mid else if w < v then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length row)

(* ------------------------------------------------------------------ *)
(* Phase 1: clustering                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-row flags of [cluster_state.flags]: an undecided neighbor with a
   smaller id than mine (the only ones the smallest-ID rule waits for),
   a neighbor that announced IamDominator, a neighbor whose Hello
   arrived. *)
let f_smaller_white = 1
let f_dominator = 2
let f_hello = 4
let flag b i = Char.code (Bytes.unsafe_get b i)
let set_flag b i f = Bytes.unsafe_set b i (Char.unsafe_chr (flag b i lor f))
let clear_flag b i f = Bytes.unsafe_set b i (Char.unsafe_chr (flag b i land lnot f))

type cluster_state = {
  row : int array;  (* my neighbors, ascending; [flags] and [nbr_pos] align *)
  flags : Bytes.t;
  mutable smaller_white : int;  (* rows flagged [f_smaller_white] *)
  mutable status : [ `White | `Dominator | `Dominatee ];
  mutable nbr_dominators : int list;  (* dominators named by neighbors *)
  nbr_pos : P.t array;  (* Hello positions, where [f_hello] *)
}

let cluster_protocol points =
  let init me row =
    let flags = Bytes.make (Array.length row) '\000' in
    let smaller = ref 0 in
    Array.iteri
      (fun i v ->
        if v < me then begin
          set_flag flags i f_smaller_white;
          incr smaller
        end)
      row;
    {
      row;
      flags;
      smaller_white = !smaller;
      status = `White;
      nbr_dominators = [];
      (* [P.origin] fills the slots until each Hello arrives *)
      nbr_pos = Array.make (Array.length row) P.origin;
    }
  in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    if ctx.E.round = 0 then ctx.E.broadcast (Hello points.(me));
    let decided i =
      if flag st.flags i land f_smaller_white <> 0 then begin
        clear_flag st.flags i f_smaller_white;
        st.smaller_white <- st.smaller_white - 1
      end
    in
    let new_dominators = ref [] in
    List.iter
      (fun { E.from; msg } ->
        match msg with
        | Hello p ->
          let i = row_index st.row from in
          st.nbr_pos.(i) <- p;
          set_flag st.flags i f_hello
        | IamDominator ->
          let i = row_index st.row from in
          decided i;
          if flag st.flags i land f_dominator = 0 then begin
            set_flag st.flags i f_dominator;
            if st.status <> `Dominator then begin
              st.status <- `Dominatee;
              new_dominators := from :: !new_dominators
            end
          end
        | IamDominatee d ->
          decided (row_index st.row from);
          st.nbr_dominators <- d :: st.nbr_dominators
        | TwoHopDoms _ | TryConnector _ | IamConnector _ | Status _
        | Proposal _ | Accept _ | Reject _ | ShareTriangles _
        | RemainingTriangles _ | NeighborTable _ ->
          ())
      inbox;
    (* smallest-ID rule: claim dominatorship once no undecided
       neighbor has a smaller id (from round 1 on, when ids have
       certainly been exchanged) *)
    if ctx.E.round >= 1 && st.status = `White && st.smaller_white = 0 then begin
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

(* Election schedule in engine rounds: Single candidacies are
   announced in round 0 and decided in round 1 (all rival
   announcements arrive together, synchronously); First candidacies
   wait for the dominators' round-0 TwoHopDoms, are announced in round
   1 and decided in round 2; elected First connectors announce in
   round 2, which triggers Second candidacies in round 3, decided in
   round 4.

   A node tracks rival claims for its own candidacies only: every
   candidate of a key announces in the same round (the schedule fixes
   one round per position), so a rival's claim arrives after the
   node's own candidacy is recorded. *)
type candidacy = {
  pair : int * int;
  pos : position;
  mutable least_rival : int;
      (* least id heard claiming this key ([max_int]: none); I win iff
         my id is below it *)
  mutable elected : bool;
  mutable heard_first : int list;
      (* a Second candidacy's First connectors heard for its pair *)
}

type conn_state = {
  c_role : [ `Dominator | `Dominatee ];
  c_dominators : int array;  (* ascending *)
  c_two_hop : int list;
  c_two_hop_as_dominator : int list;
      (* as a dominator: the two-hop dominators joined to me by a
         common dominatee (for the TwoHopDoms announcement) *)
  c_dom_two_hop : int list array;
      (* per entry of [c_dominators]: its announced two-hop dominators *)
  mutable c_is_connector : bool;
  mutable c_candidacies : candidacy list;  (* newest first *)
  c_by_key : candidacy Tbl.t;  (* by [election_key] *)
  mutable c_edges : (int * int) list;
}

let connectors_protocol (cluster : cluster_state array) =
  let init me _row =
    let st = cluster.(me) in
    let doms = ref [] in
    for i = Array.length st.row - 1 downto 0 do
      if flag st.flags i land f_dominator <> 0 then doms := st.row.(i) :: !doms
    done;
    let dominators = Array.of_list !doms in
    {
      c_role = (if st.status = `Dominator then `Dominator else `Dominatee);
      c_dominators = dominators;
      c_two_hop =
        List.sort_uniq Int.compare
          (List.filter
             (fun d -> d <> me && row_index st.row d < 0)
             st.nbr_dominators);
      c_two_hop_as_dominator =
        (if st.status <> `Dominator then []
         else
           List.sort_uniq Int.compare
             (List.filter (fun d -> d <> me) st.nbr_dominators));
      c_dom_two_hop = Array.make (Array.length dominators) [];
      c_is_connector = false;
      c_candidacies = [];
      c_by_key = Tbl.create 8;
      c_edges = [];
    }
  in
  let install st u v = st.c_edges <- ordered_edge u v :: st.c_edges in
  let candidacy st pair pos = Tbl.find_opt st.c_by_key (election_key pair pos) in
  let claim ctx st pair pos =
    let c =
      { pair; pos; least_rival = max_int; elected = false; heard_first = [] }
    in
    Tbl.replace st.c_by_key (election_key pair pos) c;
    st.c_candidacies <- c :: st.c_candidacies;
    ctx.E.broadcast (TryConnector (pair, pos));
    c
  in
  let dominator_index st u =
    let rec go i =
      if i >= Array.length st.c_dominators then -1
      else if st.c_dominators.(i) = u then i
      else go (i + 1)
    in
    go 0
  in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    List.iter
      (fun { E.from; msg } ->
        match msg with
        | TwoHopDoms doms ->
          let i = dominator_index st from in
          if i >= 0 then st.c_dom_two_hop.(i) <- doms
        | TryConnector (pair, pos) -> (
          match candidacy st pair pos with
          | Some c when from < c.least_rival -> c.least_rival <- from
          | _ -> ())
        | IamConnector ((u, v), Single) ->
          if me = u || me = v then install st me from
        | IamConnector (((u, v) as pair), First) ->
          if me = u then install st me from;
          if st.c_role = `Dominatee && dominator_index st v >= 0 then begin
            let c =
              match candidacy st pair Second with
              | Some c -> c
              | None -> claim ctx st pair Second
            in
            c.heard_first <- from :: c.heard_first
          end
        | IamConnector (((_, v) as pair), Second) -> (
          if me = v then install st me from;
          match candidacy st pair First with
          | Some c when c.elected -> install st me from
          | _ -> ())
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
      | `Dominator -> ctx.E.broadcast (TwoHopDoms st.c_two_hop_as_dominator)
      | `Dominatee ->
        Array.iter
          (fun u ->
            Array.iter
              (fun v -> if u < v then ignore (claim ctx st (u, v) Single))
              st.c_dominators)
          st.c_dominators
    end;
    (* round 1: with the dominators' two-hop sets in hand, dominatees
       announce first-leg candidacies only for pairs that no common
       dominatee already joins *)
    if ctx.E.round = 1 && st.c_role = `Dominatee then
      Array.iteri
        (fun i u ->
          let joined = st.c_dom_two_hop.(i) in
          List.iter
            (fun v ->
              if not (List.exists (Int.equal v) joined) then
                ignore (claim ctx st (u, v) First))
            st.c_two_hop)
        st.c_dominators;
    (* elections on schedule, newest candidacy first *)
    let due =
      match ctx.E.round with 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> -1
    in
    if due >= 0 then
      List.iter
        (fun c ->
          if position_rank c.pos = due && me < c.least_rival then begin
            st.c_is_connector <- true;
            c.elected <- true;
            ctx.E.broadcast (IamConnector (c.pair, c.pos));
            let u, v = c.pair in
            match c.pos with
            | Single ->
              install st u me;
              install st me v
            | First -> install st u me
            | Second ->
              install st me v;
              List.iter (fun w -> install st w me) c.heard_first
          end)
        st.c_candidacies;
    st
  in
  { E.init; E.on_round = on_round }

(* ------------------------------------------------------------------ *)
(* Phase 3: status broadcast (induces ICDS at no further cost)          *)
(* ------------------------------------------------------------------ *)

type status_state = {
  s_backbone : bool;
  s_row : int array;
  s_bb_nbrs : Bytes.t;  (* per row entry: a backbone neighbor *)
}

let status_protocol (backbone : bool array) =
  let init me row =
    {
      s_backbone = backbone.(me);
      s_row = row;
      s_bb_nbrs = Bytes.make (Array.length row) '\000';
    }
  in
  let on_round ctx st inbox =
    List.iter
      (fun { E.from; msg } ->
        match msg with
        | Status true -> Bytes.set st.s_bb_nbrs (row_index st.s_row from) '\001'
        | _ -> ())
      inbox;
    if ctx.E.round = 0 then ctx.E.broadcast (Status st.s_backbone);
    st
  in
  { E.init; E.on_round = on_round }

(* my ICDS neighbors with their Hello positions, ascending by id *)
let backbone_neighbors (st : status_state) (cl : cluster_state) =
  if not st.s_backbone then []
  else begin
    let acc = ref [] in
    for i = Array.length cl.row - 1 downto 0 do
      if Bytes.get st.s_bb_nbrs i <> '\000' && flag cl.flags i land f_hello <> 0
      then acc := (cl.row.(i), cl.nbr_pos.(i)) :: !acc
    done;
    !acc
  end

(* ------------------------------------------------------------------ *)
(* Phase 4: localized Delaunay on ICDS (Algorithms 2 and 3)             *)
(* ------------------------------------------------------------------ *)

(* Per-triangle flags in a node's table, keyed by [pack_tri].  The
   per-corner bits ([i] is the corner's index in the packed triangle)
   record which corners endorsed (proposed or accepted) a triangle
   and, in Algorithm 3, which corners gossiped it as remaining. *)
let t_local = 1 (* an incident triangle of my local Delaunay *)
let t_responded = 2 (* proposal answered (or sent) *)
let t_accepted = 4 (* LDel^2 *)
let t_kept = 8 (* Algorithm 3: all three corners kept it *)
let endorsed_by i = 32 lsl i
let remaining_at i = 256 lsl i

(* the corner index of [v] in triangle [k], or -1 *)
let corner k v =
  let a, b, c = unpack_tri k in
  if v = a then 0 else if v = b then 1 else if v = c then 2 else -1

let tri_flags tbl k = Option.value ~default:0 (Tbl.find_opt tbl k)
let add_tri_flags tbl k f = Tbl.replace tbl k (tri_flags tbl k lor f)

(* every corner endorsed [k]; mine is implicit in [t_local] *)
let endorsed_by_all flags ~me k =
  let flags = flags lor endorsed_by (corner k me) in
  let all = endorsed_by 0 lor endorsed_by 1 lor endorsed_by 2 in
  flags land all = all

(* an endorsement counts only for my local triangles, the only ones
   whose acceptance I settle *)
let endorse tbl k from =
  let f = tri_flags tbl k in
  if f land t_local <> 0 then
    let i = corner k from in
    if i >= 0 then Tbl.replace tbl k (f lor endorsed_by i)

(* a proposal of [k] from a neighbor: answer once, as a corner *)
let answer_proposal ctx tbl ~me k =
  let f = tri_flags tbl k in
  if corner k me >= 0 && f land t_responded = 0 then begin
    Tbl.replace tbl k (f lor t_responded);
    let t = unpack_tri k in
    if f land t_local <> 0 then ctx.E.broadcast (Accept t)
    else ctx.E.broadcast (Reject t)
  end

type ldel_state = {
  l_backbone : bool;
  l_bb_nbrs : (int * P.t) list;  (* ICDS neighbors with positions *)
  l_local : int list;  (* packed incident triangles of Del(N1(me)), ascending *)
  l_gabriel : (int * int) list;  (* incident Gabriel edges of ICDS *)
  l_tris : int Tbl.t;  (* triangle flags *)
  mutable l_accepted : int list;  (* ascending *)
  mutable l_known : int list;  (* triangles heard in gossip *)
  mutable l_remaining : int list;  (* ascending *)
  mutable l_kept : int list;  (* ascending *)
}

let pi_third = (Float.pi /. 3.) -. 1e-12

let angle_at points_of (a, b, c) ~(at : int) =
  let other = List.filter (fun v -> v <> at) [ a; b; c ] in
  match other with
  | [ x; y ] -> P.angle (points_of x) (points_of at) (points_of y)
  | _ -> invalid_arg "angle_at: corner not in triangle"

(* Gabriel test from purely local data: a blocker of edge (me, v) lies
   within |me v| <= radius of me, hence among my ICDS neighbors. *)
let gabriel_edges_at points ~me bb_nbrs =
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

let local_triangles points ~me nbrs =
  List.sort_uniq Int.compare
    (List.map pack_tri
       (Ldel.local_triangles_of_neighborhood ~me ~me_pos:points.(me) ~nbrs))

(* round-0 (LDel^2: round-1) proposals for the well-shaped incident
   triangles, ascending *)
let propose ctx tbl points ~radius ~me local =
  List.iter
    (fun k ->
      let t = unpack_tri k in
      if
        Ldel.triangle_fits points ~radius t
        && angle_at (fun v -> points.(v)) t ~at:me >= pi_third
      then begin
        ctx.E.broadcast (Proposal t);
        add_tri_flags tbl k (t_responded lor endorsed_by (corner k me))
      end)
    local

let ldel_protocol (status : status_state array)
    (cluster : cluster_state array) points ~radius =
  let init me _row =
    let bb_nbrs = backbone_neighbors status.(me) cluster.(me) in
    let local =
      if status.(me).s_backbone then local_triangles points ~me bb_nbrs else []
    in
    let tris = Tbl.create 16 in
    List.iter (fun k -> Tbl.replace tris k t_local) local;
    {
      l_backbone = status.(me).s_backbone;
      l_bb_nbrs = bb_nbrs;
      l_local = local;
      l_gabriel = gabriel_edges_at points ~me bb_nbrs;
      l_tris = tris;
      l_accepted = [];
      l_known = [];
      l_remaining = [];
      l_kept = [];
    }
  in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    (* a node off the backbone is a corner of no triangle and reads
       none of the gossip, so it ignores its inbox *)
    if st.l_backbone then begin
      List.iter
        (fun { E.from; msg } ->
          match msg with
          | Proposal t ->
            let k = pack_tri t in
            endorse st.l_tris k from;
            answer_proposal ctx st.l_tris ~me k
          | Accept t -> endorse st.l_tris (pack_tri t) from
          | Reject _ -> ()
          | ShareTriangles (tris, _gabriel) ->
            List.iter (fun t -> st.l_known <- pack_tri t :: st.l_known) tris
          | RemainingTriangles tris ->
            List.iter
              (fun t ->
                let k = pack_tri t in
                if tri_flags st.l_tris k land t_local <> 0 then
                  let i = corner k from in
                  if i >= 0 then add_tri_flags st.l_tris k (remaining_at i))
              tris
          | Hello _ | IamDominator | IamDominatee _ | TwoHopDoms _
          | TryConnector _ | IamConnector _ | Status _ | NeighborTable _ ->
            ())
        inbox;
      if ctx.E.round = 0 then propose ctx st.l_tris points ~radius ~me st.l_local;
      (* round 2: all proposals and responses are in; settle
         acceptance (a triangle nobody proposed is never accepted) and
         start the planarization gossip *)
      if ctx.E.round = 2 then begin
        st.l_accepted <-
          List.filter
            (fun k ->
              let f = tri_flags st.l_tris k in
              f land t_responded <> 0
              && endorsed_by_all f ~me k
              && Ldel.triangle_fits points ~radius (unpack_tri k))
            st.l_local;
        if not (List.is_empty st.l_bb_nbrs) then
          ctx.E.broadcast
            (ShareTriangles (List.map unpack_tri st.l_accepted, st.l_gabriel))
      end;
      (* round 3: apply the removal rule and gossip survivors; pairs
         whose boxes are disjoint are decided by the same exact
         prefilter [Ldel.build] applies *)
      if ctx.E.round = 3 then begin
        let known =
          Array.of_list
            (List.map unpack_tri
               (List.sort_uniq Int.compare (st.l_known @ st.l_accepted)))
        in
        let boxes = Array.map (Ldel.triangle_bbox points) known in
        st.l_remaining <-
          List.filter
            (fun k1 ->
              let t1 = unpack_tri k1 in
              let b1 = Ldel.triangle_bbox points t1 in
              not
                (Array.exists2
                   (fun t2 b2 ->
                     Geometry.Bbox.overlaps b1 b2
                     && pack_tri t2 <> k1
                     && Ldel.triangles_intersect points t1 t2
                     && Ldel.circumcircle_contains_corner points t1 t2)
                   known boxes))
            st.l_accepted;
        if not (List.is_empty st.l_bb_nbrs) then
          ctx.E.broadcast
            (RemainingTriangles (List.map unpack_tri st.l_remaining))
      end;
      (* round 4: keep a triangle only if all three corners kept it *)
      if ctx.E.round = 4 then begin
        let mine k = remaining_at (corner k me) in
        let all = remaining_at 0 lor remaining_at 1 lor remaining_at 2 in
        st.l_kept <-
          List.filter
            (fun k -> (tri_flags st.l_tris k lor mine k) land all = all)
            st.l_remaining;
        List.iter (fun k -> add_tri_flags st.l_tris k t_kept) st.l_kept
      end
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
  l2_two_hop : (int * P.t) list Tbl.t;
      (* neighbor -> its backbone neighbor table *)
  mutable l2_local : int list;  (* packed, ascending *)
  l2_gabriel : (int * int) list;
  l2_tris : int Tbl.t;  (* triangle flags *)
  mutable l2_accepted : int list;  (* ascending *)
}

let ldel2_protocol (status : status_state array)
    (cluster : cluster_state array) points ~radius =
  let init me _row =
    let bb_nbrs = backbone_neighbors status.(me) cluster.(me) in
    {
      l2_backbone = status.(me).s_backbone;
      l2_bb_nbrs = bb_nbrs;
      l2_two_hop = Tbl.create 8;
      l2_local = [];
      l2_gabriel = gabriel_edges_at points ~me bb_nbrs;
      l2_tris = Tbl.create 16;
      l2_accepted = [];
    }
  in
  let on_round ctx st inbox =
    let me = ctx.E.me in
    (* as in [ldel_protocol], nodes off the backbone ignore their inbox *)
    if st.l2_backbone then begin
      List.iter
        (fun { E.from; msg } ->
          match msg with
          | NeighborTable tbl -> Tbl.replace st.l2_two_hop from tbl
          | Proposal t ->
            let k = pack_tri t in
            endorse st.l2_tris k from;
            answer_proposal ctx st.l2_tris ~me k
          | Accept t -> endorse st.l2_tris (pack_tri t) from
          | _ -> ())
        inbox;
      (* round 0: publish my backbone neighbor table *)
      if ctx.E.round = 0 && not (List.is_empty st.l2_bb_nbrs) then
        ctx.E.broadcast (NeighborTable st.l2_bb_nbrs);
      (* round 1: N_2 assembled; compute Del(N_2(me)) and propose *)
      if ctx.E.round = 1 then begin
        let nbrs =
          List.sort_uniq by_id
            (List.concat_map
               (fun ((v, _) as nbr) ->
                 nbr
                 :: List.filter
                      (fun (w, _) -> w <> me)
                      (Option.value ~default:[] (Tbl.find_opt st.l2_two_hop v)))
               st.l2_bb_nbrs)
        in
        st.l2_local <- local_triangles points ~me nbrs;
        List.iter (fun k -> add_tri_flags st.l2_tris k t_local) st.l2_local;
        propose ctx st.l2_tris points ~radius ~me st.l2_local
      end;
      (* round 3: settle acceptance *)
      if ctx.E.round = 3 then begin
        st.l2_accepted <-
          List.filter
            (fun k ->
              let f = tri_flags st.l2_tris k in
              f land t_responded <> 0
              && endorsed_by_all f ~me k
              && Ldel.triangle_fits points ~radius (unpack_tri k))
            st.l2_local;
        List.iter
          (fun k -> add_tri_flags st.l2_tris k t_accepted)
          st.l2_accepted
      end
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
  ldel_graph : Netgraph.Csr.t;
  stats_cluster : E.stats;
  stats_connector : E.stats;
  stats_status : E.stats;
  stats_ldel : E.stats;
}

type ldel2_result = {
  l2_triangles : (int * int * int) list;
  l2_gabriel_edges : (int * int) list;
  l2_graph : Netgraph.Csr.t;
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

let roles_of cluster =
  Array.map
    (fun st ->
      match st.status with
      | `Dominator -> Mis.Dominator
      | `Dominatee -> Mis.Dominatee
      | `White -> assert false (* the clustering fixpoint colors every node *))
    cluster

let sorted_tris lists =
  List.sort_uniq Int.compare (List.concat lists)

(* packed triangles that every corner's table flags with [f] *)
let unanimous tables f ks =
  List.filter
    (fun k ->
      let a, b, c = unpack_tri k in
      List.for_all (fun v -> tri_flags tables.(v) k land f <> 0) [ a; b; c ])
    ks

let graph_of n gabriel triangles =
  Netgraph.Csr.of_edges n
    (gabriel
    @ List.concat_map (fun (a, b, c) -> [ (a, b); (b, c); (a, c) ]) triangles)

(* the UDG every phase runs on, frozen once *)
let udg_of points ~radius =
  if Array.length points > max_nodes then
    invalid_arg
      (Printf.sprintf "Protocol: %d nodes exceed the %d packed ids allow"
         (Array.length points) max_nodes);
  Wireless.Udg.build points ~radius

let run points ~radius =
  Obs.span "protocol" @@ fun () ->
  let udg = Obs.span "udg" (fun () -> udg_of points ~radius) in
  let n = Array.length points in
  let cluster, stats_cluster =
    Obs.span phase_cluster (fun () ->
        E.run ~classify udg (cluster_protocol points))
  in
  let roles = roles_of cluster in
  let conn, stats_connector =
    Obs.span phase_connectors (fun () ->
        E.run ~classify udg (connectors_protocol cluster))
  in
  let connector = Array.map (fun st -> st.c_is_connector) conn in
  let cds_edges =
    List.sort_uniq G.compare_edge
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
          Array.iteri
            (fun i v ->
              if u < v && Bytes.get st.s_bb_nbrs i <> '\000' then
                acc := (u, v) :: !acc)
            st.s_row)
      status;
    List.sort G.compare_edge !acc
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
    List.map unpack_tri
      (sorted_tris (Array.to_list (Array.map (fun st -> st.l_accepted) ldel)))
  in
  let kept_triangles =
    (* a triangle survives when every corner kept it; corners compute
       the same predicate, so collecting any corner's view suffices —
       take the intersection-by-unanimity *)
    sorted_tris (Array.to_list (Array.map (fun st -> st.l_kept) ldel))
    |> unanimous (Array.map (fun st -> st.l_tris) ldel) t_kept
    |> List.map unpack_tri
  in
  let gabriel_edges =
    List.sort_uniq G.compare_edge
      (Array.to_list ldel |> List.concat_map (fun st -> st.l_gabriel))
  in
  {
    roles;
    connector;
    cds_edges;
    icds_edges;
    ldel_triangles;
    kept_triangles;
    gabriel_edges;
    ldel_graph = graph_of n gabriel_edges kept_triangles;
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
  let udg = udg_of points ~radius in
  let cluster, _ = E.run ~classify udg (cluster_protocol points) in
  let conn, _ = E.run ~classify udg (connectors_protocol cluster) in
  let n = Array.length points in
  let roles = roles_of cluster in
  let backbone =
    Array.init n (fun u ->
        roles.(u) = Mis.Dominator || conn.(u).c_is_connector)
  in
  let status, _ = E.run ~classify udg (status_protocol backbone) in
  let ldel2, l2_stats =
    E.run ~classify udg (ldel2_protocol status cluster points ~radius)
  in
  let l2_triangles =
    sorted_tris (Array.to_list (Array.map (fun st -> st.l2_accepted) ldel2))
    |> unanimous (Array.map (fun st -> st.l2_tris) ldel2) t_accepted
    |> List.map unpack_tri
  in
  let l2_gabriel_edges =
    List.sort_uniq G.compare_edge
      (Array.to_list ldel2 |> List.concat_map (fun st -> st.l2_gabriel))
  in
  {
    l2_triangles;
    l2_gabriel_edges;
    l2_graph = graph_of n l2_gabriel_edges l2_triangles;
    l2_stats;
  }

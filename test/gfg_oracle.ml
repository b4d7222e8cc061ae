(* GFG as a pure per-node forwarding automaton: the reference
   implementation of GPSR's greedy + perimeter forwarding that the
   scratch kernel ([Core.Routing.gfg_hop], walked by
   [Core.Routing.gfg]) is tested against.  Each decision builds its
   segments, neighbor lists and header record afresh, with
   [Geometry.Segment.intersection_point] for the face-change test.  It
   charges no counter: a test counts its decisions itself. *)

module Csr = Netgraph.Csr
module P = Geometry.Point

let next_ccw g points v ~from_angle =
  let nbrs = Csr.neighbors g v in
  let angle w = P.angle_of (P.sub points.(w) points.(v)) in
  let rel w =
    let a = angle w -. from_angle in
    let a = if a <= 1e-13 then a +. (2. *. Float.pi) else a in
    a
  in
  match nbrs with
  | [] -> None
  | _ ->
    Some
      (List.fold_left
         (fun best w -> if rel w < rel best then w else best)
         (List.hd nbrs) nbrs)

type perimeter = {
  p_entry : P.t;  (* position where perimeter mode was entered *)
  p_entry_dist : float;  (* distance to dst at entry: greedy resumes below it *)
  p_best_cross : float;  (* closest crossing of the entry->dst segment so far *)
  p_start : int * int;  (* first directed edge of the current face *)
  p_first : bool;  (* still on the starting edge of this face *)
}

type header = Greedy | Perimeter of perimeter * int  (* previous node *)

type decision = Deliver | Forward of int * header | Drop

let closer_neighbor g points ~dst u =
  let du = P.dist points.(u) points.(dst) in
  List.fold_left
    (fun acc v ->
      let dv = P.dist points.(v) points.(dst) in
      match acc with
      | Some (_, dbest) when dbest <= dv -> acc
      | _ -> if dv < du then Some (v, dv) else acc)
    None (Csr.neighbors g u)
  |> Option.map fst

(* pivot around [u] handling face changes, then forward along the
   settled edge *)
let rec advance g points ~dst u st w =
  let su, sw = st.p_start in
  if (not st.p_first) && Int.equal u su && Int.equal w sw then Drop
  else
    let seg_uw = Geometry.Segment.make points.(u) points.(w) in
    let seg_ed = Geometry.Segment.make st.p_entry points.(dst) in
    let crossing =
      match Geometry.Segment.intersection_point seg_uw seg_ed with
      | Some p ->
        let d = P.dist p points.(dst) in
        if d < st.p_best_cross -. 1e-12 then Some d else None
      | None -> None
    in
    match crossing with
    | Some d -> begin
      let a = P.angle_of (P.sub points.(w) points.(u)) in
      match next_ccw g points u ~from_angle:a with
      | None -> Drop
      | Some w' ->
        advance g points ~dst u
          { st with p_best_cross = d; p_start = (u, w'); p_first = true }
          w'
    end
    | None -> Forward (w, Perimeter ({ st with p_first = false }, u))

let gfg_step g points ~dst u header =
  if u = dst then Deliver
  else
    let enter_perimeter () =
      let toward = P.angle_of (P.sub points.(dst) points.(u)) in
      match next_ccw g points u ~from_angle:toward with
      | None -> Drop
      | Some w ->
        let entry = points.(u) in
        let st =
          {
            p_entry = entry;
            p_entry_dist = P.dist entry points.(dst);
            p_best_cross = P.dist entry points.(dst);
            p_start = (u, w);
            p_first = true;
          }
        in
        advance g points ~dst u st w
    in
    let greedy_step () =
      match closer_neighbor g points ~dst u with
      | Some v -> Forward (v, Greedy)
      | None -> enter_perimeter ()
    in
    match header with
    | Greedy -> greedy_step ()
    | Perimeter (st, prev) ->
      if P.dist points.(u) points.(dst) < st.p_entry_dist then greedy_step ()
      else begin
        let a = P.angle_of (P.sub points.(prev) points.(u)) in
        match next_ccw g points u ~from_angle:a with
        | None -> Drop
        | Some w -> advance g points ~dst u st w
      end

module M = Netgraph.Metrics

type row = {
  name : string;
  deg_avg : float;
  deg_max : int;
  len_avg : float option;
  len_max : float option;
  hop_avg : float option;
  hop_max : float option;
  edges : int;
}

let degree_row ~name g stretch =
  let d = M.degree_stats g in
  match stretch with
  | None ->
    {
      name;
      deg_avg = d.M.deg_avg;
      deg_max = d.M.deg_max;
      len_avg = None;
      len_max = None;
      hop_avg = None;
      hop_max = None;
      edges = d.M.edges;
    }
  | Some (s : M.stretch) ->
    {
      name;
      deg_avg = d.M.deg_avg;
      deg_max = d.M.deg_max;
      len_avg = Some s.M.len_avg;
      len_max = Some s.M.len_max;
      hop_avg = Some s.M.hop_avg;
      hop_max = Some s.M.hop_max;
      edges = d.M.edges;
    }

(* One fused pass: the UDG's shortest-path trees are computed once
   and amortized over every spanning structure in the table. *)
let rows ?jobs bb =
  let jobs = Option.value jobs ~default:bb.Backbone.jobs in
  let entries = Backbone.structures bb in
  let spanning =
    List.filter_map
      (fun (name, v, spans) ->
        if spans = `Spans_all then Some (name, v) else None)
      entries
  in
  let stretch_by_name =
    M.combined_stretch ~jobs ~base:bb.Backbone.snap.Shard.udg
      bb.Backbone.snap.Shard.points spanning
  in
  List.map
    (fun (name, v, spans) ->
      let stretch =
        match spans with
        | `Backbone_only -> None
        | `Spans_all ->
          let _, c =
            List.find (fun (n, _) -> String.equal n name) stretch_by_name
          in
          Some c.M.c_stretch
      in
      degree_row ~name v stretch)
    entries

type agg = {
  a_name : string;
  a_deg_avg : float;
  a_deg_max : int;
  a_len_avg : float option;
  a_len_max : float option;
  a_hop_avg : float option;
  a_hop_max : float option;
  a_edges : float;
}

let aggregate instances =
  match instances with
  | [] -> []
  | first :: _ ->
    let k = float_of_int (List.length instances) in
    List.mapi
      (fun i (proto : row) ->
        let col = List.map (fun rows -> List.nth rows i) instances in
        let avg f = List.fold_left (fun acc r -> acc +. f r) 0. col /. k in
        let avg_opt f =
          if List.for_all (fun r -> f r <> None) col then
            Some (avg (fun r -> Option.get (f r)))
          else None
        in
        let max_opt f =
          if List.for_all (fun r -> f r <> None) col then
            Some
              (List.fold_left
                 (fun acc r -> Float.max acc (Option.get (f r)))
                 neg_infinity col)
          else None
        in
        {
          a_name = proto.name;
          a_deg_avg = avg (fun r -> r.deg_avg);
          a_deg_max = List.fold_left (fun acc r -> max acc r.deg_max) 0 col;
          a_len_avg = avg_opt (fun r -> r.len_avg);
          a_len_max = max_opt (fun r -> r.len_max);
          a_hop_avg = avg_opt (fun r -> r.hop_avg);
          a_hop_max = max_opt (fun r -> r.hop_max);
          a_edges = avg (fun r -> float_of_int r.edges);
        })
      first

let pp_opt fmt = function
  | None -> Format.fprintf fmt "%8s" "-"
  | Some v -> Format.fprintf fmt "%8.2f" v

let pp_row fmt r =
  Format.fprintf fmt "%-13s %8.2f %8d %a %a %a %a %8d" r.name r.deg_avg
    r.deg_max pp_opt r.len_avg pp_opt r.len_max pp_opt r.hop_avg pp_opt
    r.hop_max r.edges

let pp_agg_header fmt () =
  Format.fprintf fmt "%-13s %8s %8s %8s %8s %8s %8s %8s" "structure" "deg_avg"
    "deg_max" "len_avg" "len_max" "hop_avg" "hop_max" "edges"

let pp_agg fmt a =
  Format.fprintf fmt "%-13s %8.2f %8d %a %a %a %a %8.1f" a.a_name a.a_deg_avg
    a.a_deg_max pp_opt a.a_len_avg pp_opt a.a_len_max pp_opt a.a_hop_avg
    pp_opt a.a_hop_max a.a_edges

(** Topology quality rows — the measurements of the paper's Table I.

    One row per structure: average/maximum node degree, average/maximum
    length and hop stretch factors relative to the UDG (only for
    structures that span all nodes; backbone-only structures get [None]
    as in the paper's "-" cells), and the edge count. *)

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

(** [rows backbone] measures every structure of
    {!Backbone.structures} on one instance.  All spanning structures
    share one fused stretch pass (the UDG shortest-path trees are
    computed once — see {!Netgraph.Metrics.combined_stretch}), fanned
    across [jobs] worker domains (default [backbone.jobs]). *)
val rows : ?jobs:int -> Backbone.t -> row list

(** Aggregate rows of the same structure across instances: averages
    are averaged, maxima are maximized, edges averaged (reported to
    one decimal as a float in [pp_agg]). *)
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

val aggregate : row list list -> agg list

val pp_row : Format.formatter -> row -> unit
val pp_agg_header : Format.formatter -> unit -> unit
val pp_agg : Format.formatter -> agg -> unit

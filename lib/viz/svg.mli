(** SVG rendering of embedded graphs.

    A minimal, dependency-free renderer for the structures this
    library builds: nodes drawn at their deployment positions (styled
    by role), edges as straight segments (the drawing is exactly the
    geometric embedding whose planarity the algorithms guarantee), and
    optional highlighted paths for routing illustrations.  This is how
    the repository regenerates pictures in the style of the paper's
    Figures 6 and 7. *)

type node_style = {
  fill : string;  (** CSS color *)
  shape : [ `Circle | `Square ];
  size : float;  (** radius / half-side in user units *)
}

val dominator_style : node_style
val connector_style : node_style
val dominatee_style : node_style

type t

(** [create ~width ~height ~world] starts a drawing of the rectangle
    [world] scaled to a [width] x [height] pixel canvas (y flipped so
    the origin is bottom-left, as in the paper's plots). *)
val create : width:int -> height:int -> world:Geometry.Bbox.t -> t

(** [add_edges t points g ~stroke ~stroke_width] draws every edge of
    [g] as a segment between its endpoints' positions. *)
val add_edges :
  t ->
  Geometry.Point.t array ->
  Netgraph.Csr.t ->
  stroke:string ->
  stroke_width:float ->
  unit

(** [add_path t points path ~stroke ~stroke_width] overlays a node
    path (e.g. a route) as a polyline. *)
val add_path :
  t ->
  Geometry.Point.t array ->
  int list ->
  stroke:string ->
  stroke_width:float ->
  unit

(** [add_nodes t points ~style_of] draws every node with the style
    chosen by [style_of]. *)
val add_nodes :
  t -> Geometry.Point.t array -> style_of:(int -> node_style) -> unit

(** [add_label t pos text] places a small text label. *)
val add_label : t -> Geometry.Point.t -> string -> unit

(** Serialize the accumulated drawing. *)
val to_string : t -> string

(** [write_file t file] saves the SVG. *)
val write_file : t -> string -> unit

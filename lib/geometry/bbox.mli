(** Axis-aligned bounding boxes. *)

type t = { xmin : float; ymin : float; xmax : float; ymax : float }

val make : xmin:float -> ymin:float -> xmax:float -> ymax:float -> t

(** [of_points pts] is the tightest box containing all points.
    @raise Invalid_argument on an empty list. *)
val of_points : Point.t list -> t

val width : t -> float
val height : t -> float
val center : t -> Point.t
val contains : t -> Point.t -> bool

(** [overlaps b1 b2] holds when the closed boxes share a point
    (touching boundaries count). *)
val overlaps : t -> t -> bool

(** [expand margin b] grows the box by [margin] on every side. *)
val expand : float -> t -> t

(** Smallest box containing both arguments. *)
val union : t -> t -> t

val corners : t -> Point.t * Point.t * Point.t * Point.t
val pp : Format.formatter -> t -> unit

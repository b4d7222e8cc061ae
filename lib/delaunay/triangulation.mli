(** Delaunay triangulation (incremental Bowyer–Watson).

    The construction maintains a triangulation of the full plane by
    adding one symbolic ghost vertex "at infinity": every hull edge
    carries a ghost triangle, so point insertion is a single uniform
    cavity operation whether the point lands inside or outside the
    current hull.  All sidedness and in-circumdisk decisions go through
    the exact predicates of {!Geometry.Predicates}, so the result is a
    true Delaunay triangulation (unique when no four input points are
    co-circular, which the paper assumes).

    Degenerate inputs are handled: fewer than three points or an
    entirely collinear set produce no triangles, and {!edges} falls
    back to the Delaunay graph of such inputs (the path along the
    line, or the single edge).

    Each insertion scans every live triangle, so a triangulation
    costs O(n²) [incircle] calls.  When only the triangles at one
    vertex are needed, {!Star} computes them in O(d log d) and comes
    here only on exact ties; the LDel stages of the pipeline do that,
    while the Delaunay-based proximity graphs and the distributed
    protocol triangulate with this kernel. *)

type t

(** [triangulate points] builds the Delaunay triangulation.  Point
    indices in the result refer to positions in [points].
    @raise Invalid_argument when two input points coincide. *)
val triangulate : Geometry.Point.t array -> t

(** Number of input points. *)
val point_count : t -> int

(** The input points. *)
val points : t -> Geometry.Point.t array

(** All Delaunay triangles as index triples in counterclockwise order,
    normalized so the smallest index comes first. *)
val triangles : t -> (int * int * int) list

(** [has_triangle t i j k] tests whether the three indices form a
    triangle of the triangulation, in any order. *)
val has_triangle : t -> int -> int -> int -> bool

(** All Delaunay edges as [(u, v)] with [u < v], sorted. *)
val edges : t -> (int * int) list

(** Convex hull indices in counterclockwise order (or the sorted point
    sequence for collinear inputs). *)
val hull : t -> int list

(** [triangles_of_vertex t v] lists the triangles incident to [v]. *)
val triangles_of_vertex : t -> int -> (int * int * int) list

(** [is_delaunay points tris] verifies the empty-circumcircle property
    of a triangle list against every point — an O(t·n) checker used by
    the test-suite, exposed so other layers can assert on it too. *)
val is_delaunay : Geometry.Point.t array -> (int * int * int) list -> bool

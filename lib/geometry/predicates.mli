(** Geometric predicates.

    The predicates below are the decision procedures everything else in
    the library leans on: triangle orientation, the in-circle test that
    defines Delaunay triangulations, and point/segment relations.  They
    are computed with compensated floating-point evaluation: a fast
    straightforward evaluation is accepted only when it clears an error
    bound derived from the magnitudes involved, otherwise the sign is
    recomputed with extended precision via two-sum/two-product expansion
    (a small slice of Shewchuk's adaptive predicates, enough for the
    coordinate magnitudes used in wireless deployments). *)

type orientation = Ccw | Cw | Collinear

(** [orient2d a b c] is the orientation of the triangle [a b c]:
    [Ccw] when [c] lies to the left of the directed line [a -> b]. *)
val orient2d : Point.t -> Point.t -> Point.t -> orientation

(** [opposite o1 o2] holds when one is [Ccw] and the other [Cw]. *)
val opposite : orientation -> orientation -> bool

(** Signed doubled area of triangle [a b c]; positive for [Ccw]. *)
val orient2d_det : Point.t -> Point.t -> Point.t -> float

(** [incircle a b c d] is [true] when [d] lies strictly inside the
    circle through [a], [b], [c].  The triangle [a b c] may have either
    orientation; the test is normalized internally. *)
val incircle : Point.t -> Point.t -> Point.t -> Point.t -> bool

(** [incircle_det a b c d] is the raw 4x4 determinant, positive when
    [d] is inside the circumcircle of the ccw triangle [a b c]. *)
val incircle_det : Point.t -> Point.t -> Point.t -> Point.t -> float

(** [incircle_sign a b c d] is the exact sign ([-1], [0] or [1]) of
    [incircle_det a b c d], without normalizing the orientation of
    [a b c]: a float filter, then expansion arithmetic when the filter
    is inconclusive.  Counts as one [incircle] call. *)
val incircle_sign : Point.t -> Point.t -> Point.t -> Point.t -> int

(** [collinear a b c] holds when the three points lie on one line
    (up to the predicate's exact sign computation). *)
val collinear : Point.t -> Point.t -> Point.t -> bool

(** [between a b p] holds when [p] lies on the closed segment [a b]
    (collinear and within the bounding box). *)
val between : Point.t -> Point.t -> Point.t -> bool

(** The star of one vertex in a Delaunay triangulation, in
    O(d log d) for [d] neighbours.

    The Delaunay neighbours of [u] in [Del({u} ∪ N)] are the vertices
    of the convex hull of [N] inverted about [u] (with [u] itself added
    when [u] is on the hull of [{u} ∪ N]): a circle through [u] inverts
    to a line, and an empty circle to a supporting line.  For inverted
    points [a' b' c'] the orientation has the sign of
    [Predicates.incircle_det a b c u] on the original points, so the
    kernel sorts the neighbours by angle around [u] with exact
    [orient2d] and runs a Graham scan whose turn test is that exact
    sign; no inverted coordinate is ever formed.  The scan starts at
    [u]'s nearest neighbour when [u] is interior (every angular gap
    below pi), else just after the one gap above pi.

    Any exact tie — a neighbour on the same ray from [u] as another
    (duplicates included) or at [u] itself, two neighbours on opposite
    rays bounding a gap of exactly pi, a zero incircle sign, or a
    nearest neighbour not singled out by its float distance — sends
    the node to {!Triangulation.triangulate} over [u] followed by the
    row, so the result equals the full kernel's on every input,
    degenerate tie-breaks and the duplicate-point exception included.
    Counted as [delaunay.star] per call and [delaunay.star_fallbacks]
    per fallback. *)

(** Reusable buffers; one per domain. *)
type scratch

val scratch : unit -> scratch

(** [link_into sc pts ~center ~nbrs ~lo ~hi ~link ~closed] writes the
    link of [center] in [Del({center} ∪ nbrs.(lo .. hi-1))] — the
    Delaunay neighbours that bound a triangle at [center], in
    counter-clockwise order — into [link.(lo ..)] and returns its
    length [m <= hi - lo].  [closed.(center)] is set when the star is
    a full disk: its triangles are [(center, link_i, link_(i+1 mod m))];
    an open star omits the last pair.  [nbrs] holds indices into
    [pts]; [link] may not alias [nbrs].  With fewer than two
    neighbours there is no triangle: the result is 0 and the points
    are not examined.
    @raise Invalid_argument when two of the points coincide (and there
    are at least two neighbours). *)
val link_into :
  scratch ->
  Geometry.Point.t array ->
  center:int ->
  nbrs:int array ->
  lo:int ->
  hi:int ->
  link:int array ->
  closed:bool array ->
  int

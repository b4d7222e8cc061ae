(** Flat, immutable spatial buckets (counting sort; no Hashtbl, no
    {!Obs}).

    The shard pipeline's spatial substrate: built once from the node
    positions, then read concurrently from pool worker domains —
    unlike {!Geometry.Grid}, whose Hashtbl buckets and Obs-instrumented
    queries must stay on the calling domain.  Buckets hold node ids in
    ascending order, so every iteration here is deterministic.

    With [cell_size] = the transmission radius this drives CSR-native
    UDG construction ({!Udg.build}) and the triangle-pair search of
    LDel planarization; with [cell_size] = the tile side its buckets
    are exactly the tile ownership sets of {!Core.Shard}. *)

(** The buckets are public for closure-free kernels ({!Udg.build}
    scans a 3x3 block straight off [start]/[order]); treat every
    array as read-only. *)
type t = private {
  cell : float;  (** cell side, at least the requested [cell_size] *)
  x0 : float;
  y0 : float;
  nx : int;  (** columns *)
  ny : int;  (** rows; bucket [k] is column [k mod nx], row [k / nx] *)
  start : int array;
      (** bucket [k] holds [order.(start.(k) .. start.(k+1)-1)] *)
  order : int array;  (** node ids grouped by bucket, ascending within *)
  cell_ix : int array;  (** node -> bucket index *)
}

(** [create ~cell_size points] buckets the points into a grid of
    square cells covering their bounding box.  With [max_cells], a
    bounding box that would need more cells than that widens the side
    (doubling it until the grid fits), so a wide, sparse deployment
    costs O([max_cells]) cells; the side never drops below
    [cell_size], so a node's 3x3 block of cells still holds every
    node within [cell_size] of it.  Grids that already fit are exactly the unbounded grid.
    @raise Invalid_argument when [cell_size <= 0]. *)
val create :
  ?max_cells:int -> cell_size:float -> Geometry.Point.t array -> t

(** Total number of cells ([nx * ny], at least 1). *)
val cells : t -> int

(** Bucket index of node [u]. *)
val cell_of : t -> int -> int

(** Bucket index of an arbitrary position (clamped to the grid). *)
val cell_at : t -> Geometry.Point.t -> int

(** [iter_cell t k f] visits bucket [k]'s nodes, ascending ids. *)
val iter_cell : t -> int -> (int -> unit) -> unit

(** Bucket [k]'s nodes as a fresh array, ascending ids. *)
val nodes_of : t -> int -> int array

(** [iter_ring_cells t k r f] visits the cell indices at Chebyshev
    distance exactly [r] from cell [k] ([r = 0]: just [k]) — halo
    enumeration for the tile tests. *)
val iter_ring_cells : t -> int -> int -> (int -> unit) -> unit

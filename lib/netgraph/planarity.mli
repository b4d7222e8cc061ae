(** Geometric planarity of embedded graphs.

    A network topology drawn with straight-line links is planar when no
    two links cross; routing schemes such as GPSR's perimeter mode are
    only correct on such drawings.  These checks are geometric (they
    use the node positions), not abstract graph planarity. *)

(** [crossing_pairs g points] lists every pair of edges that properly
    cross (edges sharing an endpoint never count).  Each pair is
    reported once as [((u1, v1), (u2, v2))]. *)
val crossing_pairs :
  Csr.t -> Geometry.Point.t array -> ((int * int) * (int * int)) list

(** Number of properly crossing edge pairs. *)
val crossing_count : Csr.t -> Geometry.Point.t array -> int

(** [is_planar g points] holds when no two edges properly cross. *)
val is_planar : Csr.t -> Geometry.Point.t array -> bool

(** [euler_bound_ok g] checks the planar edge bound [m <= 3n - 6]
    (trivially true for [n < 3]) — a cheap necessary condition. *)
val euler_bound_ok : Csr.t -> bool

(** {!crossing_count} under its old name, kept only for the benchmark
    program under [perfbench/]. *)
val crossing_count_v : Csr.t -> Geometry.Point.t array -> int

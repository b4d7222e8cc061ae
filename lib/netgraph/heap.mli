(** Array-backed binary min-heap over [(float, int)] pairs.

    The one priority queue behind every shortest-path computation in
    the library: {!Traversal.dijkstra}, the weighted SSSP inside
    {!Metrics}, and the CSR engine all share this module instead of
    carrying private copies.  Keys are compared as floats; entries
    with equal keys pop in unspecified order (Dijkstra's distances do
    not depend on tie order).

    The two-array layout (keys and values side by side) avoids one
    tuple allocation per entry; [clear] lets a worker reuse one heap
    across many sources without reallocating. *)

type t

(** [create ()] is an empty heap.  [capacity] pre-sizes the backing
    arrays (they still grow on demand). *)
val create : ?capacity:int -> unit -> t

val length : t -> int
val is_empty : t -> bool

(** Drop all entries, keeping the backing arrays. *)
val clear : t -> unit

(** [push h key value] inserts an entry. *)
val push : t -> float -> int -> unit

(** [push_at h keys value] is [push h keys.(value) value]; no float
    crosses the call, so it never boxes one (a float argument is boxed
    wherever the call is not inlined, e.g. across [-opaque] modules). *)
val push_at : t -> float array -> int -> unit

(** Smallest key / its value.  Unspecified among equal keys.
    @raise Invalid_argument when empty. *)
val min_key : t -> float

val min_value : t -> int

(** [min_within h keys] is [min_key h <= keys.(min_value h)], without
    boxing the key: whether a lazy-deletion Dijkstra's minimum entry
    is still current in its [keys] = distance array.
    @raise Invalid_argument when empty. *)
val min_within : t -> float array -> bool

(** Remove the minimum entry.
    @raise Invalid_argument when empty. *)
val remove_min : t -> unit

(** [pop h] removes and returns the minimum entry, or [None] when
    empty — the allocating convenience over
    [min_key]/[min_value]/[remove_min]. *)
val pop : t -> (float * int) option

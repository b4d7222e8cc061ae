(** Connectivity queries.  Component labels and whole-graph
    connectivity are {!Csr.component_labels} and {!Csr.is_connected}. *)

(** Number of connected components (isolated nodes count). *)
val count : Csr.t -> int

(** [connected_within g nodes] holds when the nodes in the set induce
    a connected subgraph of [g] (using only edges between members).
    An empty or singleton set is connected. *)
val connected_within : Csr.t -> int list -> bool

(** [reachable g s] is the list of nodes reachable from [s]
    (including [s]), in increasing id order. *)
val reachable : Csr.t -> int -> int list

(** {!Csr.is_connected} under its old name, kept only for the
    benchmark program under [perfbench/]. *)
val is_connected : Csr.t -> bool

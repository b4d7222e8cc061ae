(** Seeded, deterministic query workloads for the serving layer.

    A workload is a flat pre-generated sequence of queries — per
    query a kind (which router, or a sampled-stretch probe), a source
    and a destination — plus, for open-loop runs, an arrival
    timestamp per query.  Generation is a pure function of the seed
    ({!Wireless.Rand}), so the same flags reproduce the same queries
    on any machine and for any [--jobs], which is what makes the
    engine's per-query result log bit-identical across worker
    counts. *)

(** Kind codes stored in {!t.kind}, and the graph each routes on:
    - {!k_greedy} and {!k_compass} run {!Core.Routing.greedy_into} and
      {!Core.Routing.compass_into} on the UDG: one-hop localized rules
      that need no planarity;
    - {!k_gfg} runs {!Core.Routing.hierarchical_into}: greedy on the
      UDG, GFG recovery over the planar PLDel(ICDS);
    - {!k_stretch} routes as {!k_gfg} and divides the walked length
      by the UDG shortest-path distance. *)

val k_greedy : int

val k_gfg : int
val k_compass : int
val k_stretch : int

(** The number of kind codes: they run [0 .. kinds - 1]. *)
val kinds : int

(** Display name of a kind code (["greedy"], ["gfg"], ["compass"],
    ["stretch"]). *)
val op_name : int -> string

(** Relative scheme weights (normalized at generation). *)
type mix = { greedy : float; gfg : float; compass : float; stretch : float }

(** 45% greedy, 35% gfg, 15% compass, 5% stretch. *)
val default_mix : mix

(** Endpoint distribution: uniform over ids; Zipf with the given
    exponent over ids (low ids hot); or a hotspot set of [nodes]
    random nodes receiving [frac] of all endpoint draws. *)
type skew = Uniform | Zipf of float | Hotspot of { nodes : int; frac : float }

type t = {
  n : int;  (** node-id space the endpoints are drawn from *)
  count : int;
  kind : int array;
  src : int array;
  dst : int array;
  arrival_us : float array;
      (** open-loop arrival offsets in microseconds from run start
          ([i / rate]); empty for closed-loop workloads *)
}

(** [generate ~seed ~n ~count ()] draws [count] queries.  [rate]
    (queries per second) switches the workload to open loop.
    Endpoints may coincide ([src = dst] is a legal query: the trivial
    delivery).
    @raise Invalid_argument on non-positive [n] or [rate], negative
    count or weights, or an all-zero mix. *)
val generate :
  seed:int64 ->
  n:int ->
  count:int ->
  ?mix:mix ->
  ?skew:skew ->
  ?rate:float ->
  unit ->
  t

(** {2 Flag spellings}

    The CLI/bench surface: ["greedy=0.4,gfg=0.4,stretch=0.2"] for a
    mix (omitted schemes weigh 0); ["uniform"], ["zipf:0.9"] or
    ["hotspot:0.8/16"] (fraction/nodes) for a skew. *)

val mix_to_string : mix -> string

val mix_of_string : string -> (mix, string) result
val skew_to_string : skew -> string
val skew_of_string : string -> (skew, string) result

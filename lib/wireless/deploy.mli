(** Node deployment models.

    The paper's experiments place [n] nodes uniformly at random in a
    square and keep only connected instances.  Alongside that primary
    model we provide the perturbed grid and clustered deployments used
    in follow-up topology-control studies, so coverage and robustness
    experiments have contrasting workloads. *)

(** [uniform rng ~n ~side] draws [n] independent positions uniformly
    in the square [[0, side] x [0, side]]. *)
val uniform : Rand.t -> n:int -> side:float -> Geometry.Point.t array

(** [perturbed_grid rng ~n ~side ~jitter] places nodes on the
    [ceil (sqrt n)] grid and displaces each by uniform noise of
    amplitude [jitter] in each coordinate. *)
val perturbed_grid :
  Rand.t -> n:int -> side:float -> jitter:float -> Geometry.Point.t array

(** [clustered rng ~n ~side ~clusters ~spread] draws [clusters]
    uniform cluster centers and places nodes around centers with
    Gaussian spread — a hotspot workload. Positions are clamped into
    the square. *)
val clustered :
  Rand.t ->
  n:int ->
  side:float ->
  clusters:int ->
  spread:float ->
  Geometry.Point.t array

(** Raised by {!connected_uniform} when every attempt came out
    disconnected — typically because [n] nodes in a square of side
    [side] are too sparse for [radius] to connect them. *)
exception
  No_connected_instance of {
    n : int;
    side : float;
    radius : float;
    attempts : int;
  }

(** [connected_uniform rng ~n ~side ~radius ~max_attempts] redraws
    uniform deployments until the induced unit disk graph of range
    [radius] is connected, as the paper does.  Returns the points and
    the number of attempts used.
    @raise No_connected_instance when [max_attempts] deployments all
    come out disconnected. *)
val connected_uniform :
  Rand.t ->
  n:int ->
  side:float ->
  radius:float ->
  max_attempts:int ->
  Geometry.Point.t array * int

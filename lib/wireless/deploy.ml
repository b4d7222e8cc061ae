module P = Geometry.Point

let uniform rng ~n ~side =
  Array.init n (fun _ ->
      P.make (Rand.float rng side) (Rand.float rng side))

let perturbed_grid rng ~n ~side ~jitter =
  let cols = int_of_float (Float.ceil (sqrt (float_of_int n))) in
  let step = side /. float_of_int cols in
  Array.init n (fun i ->
      let gx = float_of_int (i mod cols) +. 0.5 in
      let gy = float_of_int (i / cols) +. 0.5 in
      let dx = Rand.float rng (2. *. jitter) -. jitter in
      let dy = Rand.float rng (2. *. jitter) -. jitter in
      let clamp v = Float.max 0. (Float.min side v) in
      P.make (clamp ((gx *. step) +. dx)) (clamp ((gy *. step) +. dy)))

let clustered rng ~n ~side ~clusters ~spread =
  if clusters <= 0 then invalid_arg "Deploy.clustered: clusters <= 0";
  let centers =
    Array.init clusters (fun _ ->
        P.make (Rand.float rng side) (Rand.float rng side))
  in
  Array.init n (fun _ ->
      let c = centers.(Rand.int rng clusters) in
      let clamp v = Float.max 0. (Float.min side v) in
      P.make
        (clamp (c.x +. (spread *. Rand.gaussian rng)))
        (clamp (c.y +. (spread *. Rand.gaussian rng))))

exception
  No_connected_instance of {
    n : int;
    side : float;
    radius : float;
    attempts : int;
  }

let () =
  Printexc.register_printer (function
    | No_connected_instance { n; side; radius; attempts } ->
      Some
        (Printf.sprintf
           "Deploy.connected_uniform: no connected instance in %d attempts \
            (n=%d side=%g radius=%g)"
           attempts n side radius)
    | _ -> None)

let connected_uniform rng ~n ~side ~radius ~max_attempts =
  let rec go attempt =
    if attempt > max_attempts then
      raise
        (No_connected_instance { n; side; radius; attempts = max_attempts })
    else
      let pts = uniform rng ~n ~side in
      let udg = Udg.build pts ~radius in
      Udg.observe_queries udg;
      if Netgraph.Csr.is_connected udg then (pts, attempt)
      else go (attempt + 1)
  in
  go 1

type t = { xmin : float; ymin : float; xmax : float; ymax : float }

let make ~xmin ~ymin ~xmax ~ymax = { xmin; ymin; xmax; ymax }

let of_points = function
  | [] -> invalid_arg "Bbox.of_points: empty list"
  | (p : Point.t) :: rest ->
    List.fold_left
      (fun b (q : Point.t) ->
        {
          xmin = Float.min b.xmin q.x;
          ymin = Float.min b.ymin q.y;
          xmax = Float.max b.xmax q.x;
          ymax = Float.max b.ymax q.y;
        })
      { xmin = p.x; ymin = p.y; xmax = p.x; ymax = p.y }
      rest

let width b = b.xmax -. b.xmin
let height b = b.ymax -. b.ymin
let center b = Point.make ((b.xmin +. b.xmax) /. 2.) ((b.ymin +. b.ymax) /. 2.)

let contains b (p : Point.t) =
  b.xmin <= p.x && p.x <= b.xmax && b.ymin <= p.y && p.y <= b.ymax

let overlaps b1 b2 =
  b1.xmin <= b2.xmax && b2.xmin <= b1.xmax && b1.ymin <= b2.ymax
  && b2.ymin <= b1.ymax

let expand m b =
  { xmin = b.xmin -. m; ymin = b.ymin -. m; xmax = b.xmax +. m; ymax = b.ymax +. m }

let union b1 b2 =
  {
    xmin = Float.min b1.xmin b2.xmin;
    ymin = Float.min b1.ymin b2.ymin;
    xmax = Float.max b1.xmax b2.xmax;
    ymax = Float.max b1.ymax b2.ymax;
  }

let corners b =
  ( Point.make b.xmin b.ymin,
    Point.make b.xmax b.ymin,
    Point.make b.xmax b.ymax,
    Point.make b.xmin b.ymax )

let pp fmt b =
  Format.fprintf fmt "bbox[%g..%g x %g..%g]" b.xmin b.xmax b.ymin b.ymax

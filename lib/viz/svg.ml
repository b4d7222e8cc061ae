type node_style = {
  fill : string;
  shape : [ `Circle | `Square ];
  size : float;
}

let dominator_style = { fill = "#d62728"; shape = `Square; size = 4. }
let connector_style = { fill = "#1f77b4"; shape = `Square; size = 3. }
let dominatee_style = { fill = "#7f7f7f"; shape = `Circle; size = 2. }

type t = {
  width : int;
  height : int;
  world : Geometry.Bbox.t;
  buf : Buffer.t;
}

let margin = 10.

let create ~width ~height ~world = { width; height; world; buf = Buffer.create 4096 }

let project t (p : Geometry.Point.t) =
  let w = Geometry.Bbox.width t.world and h = Geometry.Bbox.height t.world in
  let w = if w = 0. then 1. else w and h = if h = 0. then 1. else h in
  let x =
    margin +. ((p.x -. t.world.Geometry.Bbox.xmin) /. w
              *. (float_of_int t.width -. (2. *. margin)))
  in
  (* flip y: SVG grows downward, the paper's plots grow upward *)
  let y =
    float_of_int t.height -. margin
    -. ((p.y -. t.world.Geometry.Bbox.ymin) /. h
       *. (float_of_int t.height -. (2. *. margin)))
  in
  (x, y)

let add_edges t points g ~stroke ~stroke_width =
  Buffer.add_string t.buf
    (Printf.sprintf "<g stroke=\"%s\" stroke-width=\"%g\">\n" stroke
       stroke_width);
  Netgraph.Csr.iter_edges g (fun u v ->
      let x1, y1 = project t points.(u) and x2, y2 = project t points.(v) in
      Buffer.add_string t.buf
        (Printf.sprintf "<line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\"/>\n"
           x1 y1 x2 y2));
  Buffer.add_string t.buf "</g>\n"

let add_path t points path ~stroke ~stroke_width =
  match path with
  | [] | [ _ ] -> ()
  | _ ->
    let pts =
      String.concat " "
        (List.map
           (fun v ->
             let x, y = project t points.(v) in
             Printf.sprintf "%.1f,%.1f" x y)
           path)
    in
    Buffer.add_string t.buf
      (Printf.sprintf
         "<polyline points=\"%s\" fill=\"none\" stroke=\"%s\" \
          stroke-width=\"%g\"/>\n"
         pts stroke stroke_width)

let add_nodes t points ~style_of =
  Array.iteri
    (fun i p ->
      let s = style_of i in
      let x, y = project t p in
      match s.shape with
      | `Circle ->
        Buffer.add_string t.buf
          (Printf.sprintf
             "<circle cx=\"%.1f\" cy=\"%.1f\" r=\"%g\" fill=\"%s\"/>\n" x y
             s.size s.fill)
      | `Square ->
        Buffer.add_string t.buf
          (Printf.sprintf
             "<rect x=\"%.1f\" y=\"%.1f\" width=\"%g\" height=\"%g\" \
              fill=\"%s\"/>\n"
             (x -. s.size) (y -. s.size) (2. *. s.size) (2. *. s.size) s.fill))
    points

let add_label t pos text =
  let x, y = project t pos in
  Buffer.add_string t.buf
    (Printf.sprintf
       "<text x=\"%.1f\" y=\"%.1f\" font-size=\"10\" \
        font-family=\"sans-serif\">%s</text>\n"
       x y text)

let to_string t =
  Printf.sprintf
    "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%d\" height=\"%d\" \
     viewBox=\"0 0 %d %d\">\n<rect width=\"%d\" height=\"%d\" \
     fill=\"white\"/>\n%s</svg>\n"
    t.width t.height t.width t.height t.width t.height (Buffer.contents t.buf)

let write_file t file =
  let oc = open_out file in
  output_string oc (to_string t);
  close_out oc

(* Delaunay triangulation: exactness of the empty-circumcircle
   property, combinatorial counts, degeneracies. *)

module P = Geometry.Point
module DT = Delaunay.Triangulation

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)
let p = P.make

let test_single_triangle () =
  let pts = [| p 0. 0.; p 1. 0.; p 0. 1. |] in
  let t = DT.triangulate pts in
  checki "one triangle" 1 (List.length (DT.triangles t));
  checki "three edges" 3 (List.length (DT.edges t));
  check "has triangle any order" true (DT.has_triangle t 2 0 1);
  Alcotest.(check (list int)) "hull" [ 0; 1; 2 ] (List.sort compare (DT.hull t))

let test_square_diagonal () =
  (* unit square plus center: 4 triangles around the center *)
  let pts = [| p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1.; p 0.5 0.5 |] in
  let t = DT.triangulate pts in
  checki "four triangles" 4 (List.length (DT.triangles t));
  check "all delaunay" true (DT.is_delaunay pts (DT.triangles t));
  checki "hull size" 4 (List.length (DT.hull t))

let test_cocircular_square () =
  (* a plain square: 4 cocircular points; either diagonal gives a
     valid Delaunay triangulation *)
  let pts = [| p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1. |] in
  let t = DT.triangulate pts in
  checki "two triangles" 2 (List.length (DT.triangles t));
  checki "five edges" 5 (List.length (DT.edges t))

let test_collinear_fallback () =
  let pts = [| p 3. 3.; p 0. 0.; p 1. 1.; p 2. 2. |] in
  let t = DT.triangulate pts in
  checki "no triangles" 0 (List.length (DT.triangles t));
  (* path along the line in sorted order *)
  Alcotest.(check (list (pair int int)))
    "path edges"
    [ (1, 2); (2, 3); (0, 3) ]
    (DT.edges t)

let test_two_points () =
  let t = DT.triangulate [| p 0. 0.; p 5. 5. |] in
  Alcotest.(check (list (pair int int))) "single edge" [ (0, 1) ] (DT.edges t)

let test_duplicate_rejected () =
  check "duplicate raises" true
    (try
       ignore (DT.triangulate [| p 0. 0.; p 1. 1.; p 0. 0. |]);
       false
     with Invalid_argument _ -> true)

let test_point_on_hull_edge () =
  (* inserting a point exactly on an existing hull edge *)
  let pts = [| p 0. 0.; p 4. 0.; p 2. 3.; p 2. 0. |] in
  let t = DT.triangulate pts in
  check "delaunay" true (DT.is_delaunay pts (DT.triangles t));
  checki "two triangles" 2 (List.length (DT.triangles t))

let test_point_outside_hull_collinear () =
  (* new point collinear with a hull edge, beyond it *)
  let pts = [| p 0. 0.; p 2. 0.; p 1. 2.; p 4. 0. |] in
  let t = DT.triangulate pts in
  check "delaunay" true (DT.is_delaunay pts (DT.triangles t));
  check "covers all points" true
    (List.for_all
       (fun v -> List.exists (fun (a, b) -> a = v || b = v) (DT.edges t))
       [ 0; 1; 2; 3 ])

let euler_holds n t =
  (* for a triangulation of a point set with h hull points (general
     position): T = 2n - 2 - h, E = 3n - 3 - h *)
  let h = List.length (DT.hull t) in
  List.length (DT.triangles t) = (2 * n) - 2 - h
  && List.length (DT.edges t) = (3 * n) - 3 - h

let test_random_delaunay () =
  let rng = Wireless.Rand.create 12345L in
  for _ = 1 to 25 do
    let n = 3 + Wireless.Rand.int rng 120 in
    let pts =
      Array.init n (fun _ ->
          p (Wireless.Rand.float rng 100.) (Wireless.Rand.float rng 100.))
    in
    let t = DT.triangulate pts in
    check "empty circumcircle" true (DT.is_delaunay pts (DT.triangles t));
    check "euler counts" true (euler_holds n t)
  done

let test_random_insertion_order_invariance () =
  (* the Delaunay triangulation is unique (no 4 cocircular points
     w.p. 1), so shuffling the input gives the same edge set *)
  let rng = Wireless.Rand.create 99L in
  let n = 60 in
  let pts =
    Array.init n (fun _ ->
        p (Wireless.Rand.float rng 50.) (Wireless.Rand.float rng 50.))
  in
  let t1 = DT.triangulate pts in
  let perm = Array.init n (fun i -> i) in
  Wireless.Rand.shuffle rng perm;
  let pts2 = Array.map (fun i -> pts.(i)) perm in
  let t2 = DT.triangulate pts2 in
  let back = Array.make n 0 in
  Array.iteri (fun new_i old_i -> back.(new_i) <- old_i) perm;
  let remapped =
    List.sort compare
      (List.map
         (fun (u, v) ->
           let a = back.(u) and b = back.(v) in
           (min a b, max a b))
         (DT.edges t2))
  in
  Alcotest.(check (list (pair int int)))
    "same edges under permutation" (DT.edges t1) remapped

let test_hull_matches_convex_hull () =
  let rng = Wireless.Rand.create 17L in
  for _ = 1 to 10 do
    let n = 10 + Wireless.Rand.int rng 50 in
    let pts =
      Array.init n (fun _ ->
          p (Wireless.Rand.float rng 10.) (Wireless.Rand.float rng 10.))
    in
    let t = DT.triangulate pts in
    let dt_hull =
      List.sort P.compare (List.map (fun i -> pts.(i)) (DT.hull t))
    in
    let geo_hull =
      List.sort P.compare (Geometry.Hull.convex_hull (Array.to_list pts))
    in
    check "hull = convex hull" true (dt_hull = geo_hull)
  done

let test_triangles_of_vertex () =
  let pts = [| p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1.; p 0.5 0.5 |] in
  let t = DT.triangulate pts in
  checki "center in all four" 4 (List.length (DT.triangles_of_vertex t 4));
  checki "corner in two" 2 (List.length (DT.triangles_of_vertex t 0))

let test_gabriel_subset_of_delaunay () =
  (* Gabriel edges (empty diametral disk over ALL points) are always
     Delaunay edges *)
  let rng = Wireless.Rand.create 31L in
  for _ = 1 to 10 do
    let n = 40 in
    let pts =
      Array.init n (fun _ ->
          p (Wireless.Rand.float rng 100.) (Wireless.Rand.float rng 100.))
    in
    let t = DT.triangulate pts in
    let del_edges = DT.edges t in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        let gabriel =
          Array.for_all
            (fun w ->
              P.equal w pts.(u) || P.equal w pts.(v)
              || not (Geometry.Circle.in_diametral pts.(u) pts.(v) w))
            pts
        in
        if gabriel then
          check "gabriel edge is delaunay" true (List.mem (u, v) del_edges)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Oracle: the set-based Bowyer–Watson kernel the flat-array one        *)
(* replaced, kept verbatim in behaviour (same predicates, same Obs      *)
(* counters) so the rewrite is checked against it, not against itself.  *)
(* ------------------------------------------------------------------ *)

module Oracle = struct
  module Pred = Geometry.Predicates

  let ghost = -1
  let c_triangulations = Obs.counter "delaunay.triangulations"
  let c_insertions = Obs.counter "delaunay.insertions"
  let c_cavity = Obs.counter "delaunay.cavity_triangles"
  let d_cavity = Obs.dist "delaunay.cavity_size"

  let cmp_int_pair (a1, b1) (a2, b2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c else Int.compare b1 b2

  let cmp_tri (a1, b1, c1) (a2, b2, c2) =
    let c = Int.compare a1 a2 in
    if c <> 0 then c
    else
      let c = Int.compare b1 b2 in
      if c <> 0 then c else Int.compare c1 c2

  module TriSet = Set.Make (struct
    type t = int * int * int

    let compare = cmp_tri
  end)

  type t = {
    pts : P.t array;
    mutable alive : TriSet.t;
    collinear_path : (int * int) list option;
  }

  let normalize (a, b, c) =
    if c = ghost then (a, b, c)
    else if a = ghost then (b, c, a)
    else if b = ghost then (c, a, b)
    else if a <= b && a <= c then (a, b, c)
    else if b <= a && b <= c then (b, c, a)
    else (c, a, b)

  let in_circumdisk pts (a, b, c) p =
    if c = ghost then
      match Pred.orient2d pts.(a) pts.(b) p with
      | Pred.Ccw -> true
      | Pred.Cw -> false
      | Pred.Collinear -> P.dot (P.sub pts.(a) p) (P.sub pts.(b) p) < 0.
    else Pred.incircle pts.(a) pts.(b) pts.(c) p

  let directed_edges (a, b, c) = [ (a, b); (b, c); (c, a) ]

  let insert t pi =
    Obs.incr c_insertions;
    let p = t.pts.(pi) in
    let bad = TriSet.filter (fun tri -> in_circumdisk t.pts tri p) t.alive in
    if !Obs.on then begin
      let cavity = TriSet.cardinal bad in
      Obs.add c_cavity cavity;
      Obs.observe d_cavity (float_of_int cavity)
    end;
    if TriSet.is_empty bad then invalid_arg "Triangulation: duplicate point"
    else begin
      let edge_set = Hashtbl.create 32 in
      TriSet.iter
        (fun tri ->
          List.iter (fun e -> Hashtbl.replace edge_set e ()) (directed_edges tri))
        bad;
      let boundary =
        Hashtbl.fold
          (fun (u, v) () acc ->
            if Hashtbl.mem edge_set (v, u) then acc else (u, v) :: acc)
          edge_set []
      in
      t.alive <- TriSet.diff t.alive bad;
      List.iter
        (fun (u, v) -> t.alive <- TriSet.add (normalize (u, v, pi)) t.alive)
        boundary
    end

  let find_seed pts =
    let n = Array.length pts in
    let rec third i j k =
      if k >= n then None
      else if
        k <> i && k <> j
        && Pred.orient2d pts.(i) pts.(j) pts.(k) <> Pred.Collinear
      then Some (i, j, k)
      else third i j (k + 1)
    in
    if n < 2 then None else third 0 1 0

  let check_distinct pts =
    let seen = Hashtbl.create (Array.length pts) in
    Array.iter
      (fun (p : P.t) ->
        if Hashtbl.mem seen (p.x, p.y) then
          invalid_arg "Triangulation: duplicate point";
        Hashtbl.add seen (p.x, p.y) ())
      pts

  let collinear_fallback pts =
    let order = Array.init (Array.length pts) (fun i -> i) in
    Array.sort (fun i j -> P.compare pts.(i) pts.(j)) order;
    let rec path i acc =
      if i + 1 >= Array.length order then List.rev acc
      else
        let u = order.(i) and v = order.(i + 1) in
        path (i + 1) ((min u v, max u v) :: acc)
    in
    path 0 []

  let triangulate pts =
    Obs.incr c_triangulations;
    check_distinct pts;
    match find_seed pts with
    | None ->
      { pts; alive = TriSet.empty; collinear_path = Some (collinear_fallback pts) }
    | Some (i, j, k) ->
      let i, j, k =
        match Pred.orient2d pts.(i) pts.(j) pts.(k) with
        | Pred.Ccw -> (i, j, k)
        | Pred.Cw -> (i, k, j)
        | Pred.Collinear -> assert false (* find_seed skips collinear triples *)
      in
      let t = { pts; alive = TriSet.empty; collinear_path = None } in
      t.alive <- TriSet.add (normalize (i, j, k)) t.alive;
      List.iter
        (fun (u, v) -> t.alive <- TriSet.add (v, u, ghost) t.alive)
        (directed_edges (i, j, k));
      for p = 0 to Array.length pts - 1 do
        if p <> i && p <> j && p <> k then insert t p
      done;
      t

  let real_triangles t =
    TriSet.fold
      (fun (a, b, c) acc -> if c = ghost then acc else (a, b, c) :: acc)
      t.alive []

  let triangles t = List.sort cmp_tri (real_triangles t)

  let has_triangle t i j k =
    List.exists
      (fun tri -> TriSet.mem (normalize tri) t.alive)
      [ (i, j, k); (j, k, i); (k, i, j); (i, k, j); (k, j, i); (j, i, k) ]

  let edges t =
    match t.collinear_path with
    | Some path -> path
    | None ->
      let set = Hashtbl.create 64 in
      List.iter
        (fun (a, b, c) ->
          List.iter
            (fun (u, v) -> Hashtbl.replace set (min u v, max u v) ())
            [ (a, b); (b, c); (c, a) ])
        (real_triangles t);
      List.sort cmp_int_pair (Hashtbl.fold (fun e () acc -> e :: acc) set [])

  let hull t =
    match t.collinear_path with
    | Some path -> (
      match path with
      | [] -> if Array.length t.pts = 1 then [ 0 ] else []
      | (u, _) :: _ -> u :: List.map (fun (_, v) -> v) path)
    | None -> (
      let next = Hashtbl.create 16 in
      TriSet.iter
        (fun (a, b, c) -> if c = ghost then Hashtbl.replace next a b)
        t.alive;
      match Hashtbl.fold (fun a _ acc -> min a acc) next max_int with
      | start when start = max_int -> []
      | start ->
        let rec chain v acc =
          let w = Hashtbl.find next v in
          if w = start then List.rev (v :: acc) else chain w (v :: acc)
        in
        List.rev (chain start []))
end

module type KERNEL = sig
  type t

  val triangulate : P.t array -> t
  val triangles : t -> (int * int * int) list
  val edges : t -> (int * int) list
  val hull : t -> int list
  val has_triangle : t -> int -> int -> int -> bool
end

(* Everything a kernel reports on one input, plus the Obs counter and
   dist deltas it produced: the delaunay.* work counters and the
   predicate calls behind them. *)
type observation = {
  result :
    ( (int * int * int) list * (int * int) list * int list * bool list,
      string )
    result;
  counters : (string * int) list;
  dists : (string * Obs.Snapshot.dist_stats) list;
}

let observed name =
  String.starts_with ~prefix:"delaunay." name
  || String.starts_with ~prefix:"predicates." name

(* has_triangle probes: every ordered triple on small inputs, else
   each reference triangle in all six orders plus a sliding window *)
let probes (ref_tris : (int * int * int) list) n =
  if n <= 8 then
    List.concat_map
      (fun i ->
        List.concat_map
          (fun j -> List.init n (fun k -> (i, j, k)))
          (List.init n Fun.id))
      (List.init n Fun.id)
  else
    List.concat_map
      (fun (a, b, c) -> [ (a, b, c); (b, c, a); (c, a, b); (a, c, b); (c, b, a); (b, a, c) ])
      ref_tris
    @ List.init n (fun i -> (i, (i + 1) mod n, (i + 3) mod n))

module Observe (K : KERNEL) = struct
  let run pts probe_set =
    Obs.reset ();
    Obs.set_enabled true;
    let result =
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled false)
        (fun () ->
          match K.triangulate pts with
          | exception Invalid_argument msg -> Error msg
          | t ->
            Ok
              ( K.triangles t,
                K.edges t,
                K.hull t,
                List.map (fun (i, j, k) -> K.has_triangle t i j k) probe_set ))
    in
    let s = Obs.Snapshot.capture () in
    Obs.reset ();
    {
      result;
      counters = List.filter (fun (k, _) -> observed k) s.Obs.Snapshot.counters;
      dists = List.filter (fun (k, _) -> observed k) s.Obs.Snapshot.dists;
    }
end

module Run_oracle = Observe (Oracle)
module Run_kernel = Observe (DT)

let kernel_matches_oracle pts =
  let n = Array.length pts in
  let ref_tris =
    match Oracle.triangulate pts with
    | t -> Oracle.triangles t
    | exception Invalid_argument _ -> []
  in
  let probe_set = probes ref_tris n in
  let want = Run_oracle.run pts probe_set in
  let got = Run_kernel.run pts probe_set in
  want.result = got.result
  && want.counters = got.counters
  && want.dists = got.dists
  && List.exists (fun (k, v) -> k = "delaunay.triangulations" && v = 1) got.counters

(* Inputs by family; small-integer coordinates make collinear runs
   and co-circular quadruples common, so the degenerate tie-breaks of
   both kernels are exercised. *)
let gen_points =
  let open QCheck.Gen in
  let fpt = map2 p (float_range 0. 100.) (float_range 0. 100.) in
  let lattice =
    int_range 2 5 >>= fun k ->
    shuffle_l
      (List.concat_map
         (fun x -> List.init k (fun y -> p (float_of_int x) (float_of_int y)))
         (List.init k Fun.id))
    >>= fun all ->
    int_range 0 (k * k) >|= fun m ->
    ("lattice", Array.of_list (List.filteri (fun i _ -> i < m) all))
  in
  let polygon =
    (* regular m-gon (float corners, nearly co-circular) or subsets of
       the twelve exact integer points on the radius-5 circle, with or
       without the centre *)
    let exact =
      [ (5, 0); (4, 3); (3, 4); (0, 5); (-3, 4); (-4, 3); (-5, 0); (-4, -3);
        (-3, -4); (0, -5); (3, -4); (4, -3) ]
      |> List.map (fun (x, y) -> p (float_of_int x) (float_of_int y))
    in
    bool >>= fun centre ->
    oneof
      [
        ( int_range 3 16 >|= fun m ->
          List.init m (fun i ->
              let a = 2. *. Float.pi *. float_of_int i /. float_of_int m in
              p (50. +. (20. *. cos a)) (50. +. (20. *. sin a))) );
        (shuffle_l exact >>= fun l -> int_range 3 12 >|= fun m ->
         List.filteri (fun i _ -> i < m) l);
      ]
    >>= fun ring ->
    let c = match ring with q :: _ when q.P.x < 10. -> p 0. 0. | _ -> p 50. 50. in
    shuffle_l (if centre then c :: ring else ring) >|= fun l ->
    ("polygon", Array.of_list l)
  in
  let collinear =
    int_range 0 10 >>= fun m ->
    shuffle_l (List.init m (fun i -> p (float_of_int i) ((2. *. float_of_int i) +. 1.)))
    >|= fun l -> ("collinear", Array.of_list l)
  in
  let tiny = int_range 0 3 >>= fun m -> array_size (return m) fpt >|= fun a -> ("tiny", a) in
  let random = int_range 4 60 >>= fun m -> array_size (return m) fpt >|= fun a -> ("random", a) in
  let duplicate =
    oneof [ random; lattice; polygon ] >>= fun (_, a) ->
    if Array.length a = 0 then return ("duplicate", [| p 1. 1.; p 1. 1. |])
    else
      int_bound (Array.length a - 1) >>= fun i ->
      int_bound (Array.length a) >|= fun at ->
      let l = Array.to_list a in
      ( "duplicate",
        Array.of_list (List.filteri (fun k _ -> k < at) l @ (a.(i) :: List.filteri (fun k _ -> k >= at) l)) )
  in
  oneof [ random; lattice; polygon; collinear; tiny; duplicate ]

let print_points (name, pts) =
  Printf.sprintf "%s: [%s]" name
    (String.concat "; "
       (Array.to_list (Array.map (fun (q : P.t) -> Printf.sprintf "%h,%h" q.x q.y) pts)))

let prop_kernel_matches_oracle =
  QCheck.Test.make ~name:"flat kernel = TriSet oracle (+ Obs deltas)" ~count:1500
    (QCheck.make ~print:print_points gen_points)
    (fun (_, pts) -> kernel_matches_oracle pts)

let test_oracle_fixed_cases () =
  (* the families' corner cases, pinned *)
  List.iter
    (fun pts -> check "matches oracle" true (kernel_matches_oracle pts))
    [
      [||];
      [| p 0. 0. |];
      [| p 0. 0.; p 1. 0. |];
      [| p 0. 0.; p 1. 0.; p 2. 0. |];
      [| p 0. 0.; p 1. 0.; p 0. 1. |];
      [| p 0. 0.; p 0. 0. |];
      [| p 0. 0.; p (-0.) 0.; p 1. 1. |];
      [| p 0. 0.; p 1. 0.; p 1. 1.; p 0. 1.; p 0.5 0.5 |];
      Array.init 16 (fun i -> p (float_of_int (i mod 4)) (float_of_int (i / 4)));
    ]

(* ------------------------------------------------------------------ *)
(* The star kernel against the flat kernel's triangles at one vertex   *)
(* ------------------------------------------------------------------ *)

module Star = Delaunay.Star

(* [c]'s link over every other point, ascending, and its closed flag *)
let star pts c =
  let n = Array.length pts in
  let nbrs = Array.init (n - 1) (fun i -> if i < c then i else i + 1) in
  let link = Array.make (n - 1) 0 and closed = Array.make n false in
  let m =
    Star.link_into (Star.scratch ()) pts ~center:c ~nbrs ~lo:0 ~hi:(n - 1)
      ~link ~closed
  in
  (Array.sub link 0 m, closed.(c))

(* The triangles at [c], each as the counter-clockwise pair (a, b) of
   triangle (c, a, b), sorted: from the star's link, and from
   [triangulate] over [c] followed by the other points in index order
   (the local array the star falls back to), mapped back to ids.  With
   fewer than two other points neither triangulates: the LDel stages
   never did. *)
let star_pairs pts c =
  match star pts c with
  | exception Invalid_argument msg -> Error msg
  | link, closed ->
    let m = Array.length link in
    let last = if closed then m - 1 else m - 2 in
    Ok
      (List.sort compare
         (List.init (max 0 (last + 1)) (fun i -> (link.(i), link.((i + 1) mod m)))))

let flat_pairs pts c =
  let n = Array.length pts in
  let id i = if i - 1 < c then i - 1 else i in
  let local =
    Array.init n (fun i -> if i = 0 then pts.(c) else pts.(id i))
  in
  if n < 3 then Ok []
  else
    match DT.triangulate local with
    | exception Invalid_argument msg -> Error msg
    | t ->
      Ok
        (List.sort compare
           (List.map (fun (_, x, y) -> (id x, id y)) (DT.triangles_of_vertex t 0)))

let gen_centred =
  let open QCheck.Gen in
  gen_points >>= fun (name, pts) ->
  int_bound (max 0 (Array.length pts - 1)) >|= fun c -> (name, pts, c)

let prop_star_matches_flat =
  QCheck.Test.make ~name:"star (with fallback) = flat kernel's triangles_of_vertex"
    ~count:2000
    (QCheck.make
       ~print:(fun (name, pts, c) ->
         Printf.sprintf "centre %d of %s" c (print_points (name, pts)))
       gen_centred)
    (fun (_, pts, c) ->
      Array.length pts = 0 || star_pairs pts c = flat_pairs pts c)

let star_counts f =
  Obs.reset ();
  Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Obs.set_enabled false) f;
  let s = Obs.Snapshot.capture () in
  Obs.reset ();
  let v k = try List.assoc k s.Obs.Snapshot.counters with Not_found -> 0 in
  (v "delaunay.star", v "delaunay.star_fallbacks")

let test_star_random_no_fallback () =
  (* general position: every centre runs the scan, none falls back *)
  let rng = Wireless.Rand.create 4242L in
  let pts =
    Array.init 80 (fun _ ->
        p (Wireless.Rand.float rng 100.) (Wireless.Rand.float rng 100.))
  in
  let stars, fallbacks =
    star_counts (fun () ->
        for c = 0 to 79 do
          check "star = flat" true (star_pairs pts c = flat_pairs pts c)
        done)
  in
  checki "stars" 80 stars;
  checki "no fallback" 0 fallbacks

let test_star_ties_fall_back () =
  (* each exact tie sends the node to the flat kernel *)
  List.iter
    (fun (name, pts) ->
      let _, fallbacks =
        star_counts (fun () ->
            check name true (star_pairs pts 0 = flat_pairs pts 0))
      in
      checki name 1 fallbacks)
    [
      ("same ray", [| p 0. 0.; p 1. 0.; p 2. 0.; p 0. 1.; p (-1.) (-1.) |]);
      ("opposite rays", [| p 0. 0.; p 1. 0.; p (-1.) 0.; p 0. 1. |]);
      ("co-circular", [| p 0. 0.; p 1. 1.; p (-1.) 1.; p 1. (-1.); p (-1.) (-1.) |]);
      ("duplicate neighbour", [| p 0. 0.; p 1. 0.; p 1. 0.; p 0. 1.; p (-1.) (-1.) |]);
      ("duplicate centre", [| p 0. 0.; p (-0.) 0.; p 1. 1. |]);
    ];
  (* a star with one neighbour has no triangle and is not examined,
     even when the neighbour coincides with the centre *)
  check "one neighbour" true (star [| p 0. 0.; p 1. 0. |] 0 = ([||], false));
  check "one coincident neighbour" true
    (star [| p 0. 0.; p (-0.) 0. |] 0 = ([||], false))

let suites =
  [
    ( "delaunay",
      [
        Alcotest.test_case "single triangle" `Quick test_single_triangle;
        Alcotest.test_case "square with center" `Quick test_square_diagonal;
        Alcotest.test_case "cocircular square" `Quick test_cocircular_square;
        Alcotest.test_case "collinear fallback" `Quick test_collinear_fallback;
        Alcotest.test_case "two points" `Quick test_two_points;
        Alcotest.test_case "duplicates rejected" `Quick test_duplicate_rejected;
        Alcotest.test_case "point on hull edge" `Quick test_point_on_hull_edge;
        Alcotest.test_case "collinear outside hull" `Quick
          test_point_outside_hull_collinear;
        Alcotest.test_case "random: empty circumcircle + euler" `Quick
          test_random_delaunay;
        Alcotest.test_case "insertion order invariance" `Quick
          test_random_insertion_order_invariance;
        Alcotest.test_case "hull = convex hull" `Quick
          test_hull_matches_convex_hull;
        Alcotest.test_case "triangles of vertex" `Quick
          test_triangles_of_vertex;
        Alcotest.test_case "gabriel ⊆ delaunay" `Quick
          test_gabriel_subset_of_delaunay;
        Alcotest.test_case "oracle: pinned corner cases" `Quick
          test_oracle_fixed_cases;
        QCheck_alcotest.to_alcotest prop_kernel_matches_oracle;
        Alcotest.test_case "star: general position, no fallback" `Quick
          test_star_random_no_fallback;
        Alcotest.test_case "star: exact ties fall back" `Quick
          test_star_ties_fall_back;
        QCheck_alcotest.to_alcotest prop_star_matches_flat;
      ] );
  ]

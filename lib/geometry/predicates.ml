type orientation = Ccw | Cw | Collinear

(* Work counters: every filtered-predicate call, and how often the
   float filter is inconclusive and falls through to the exact
   expansion arithmetic.  The fallback rate is the quantity that
   decides whether the filter bounds below are doing their job. *)
let c_orient2d = Obs.counter "predicates.orient2d"
let c_orient2d_exact = Obs.counter "predicates.orient2d.exact"
let c_incircle = Obs.counter "predicates.incircle"
let c_incircle_exact = Obs.counter "predicates.incircle.exact"

(* Error-free transformations: [two_sum], [two_diff] and [two_prod]
   return the rounded result together with the exact rounding error,
   so determinants can be evaluated exactly (as multi-term float
   "expansions", after Shewchuk) when the fast filtered path is not
   conclusive. *)
let two_sum a b =
  let s = a +. b in
  let bb = s -. a in
  let err = (a -. (s -. bb)) +. (b -. bb) in
  (s, err)

let two_diff a b =
  let s = a -. b in
  let bb = s -. a in
  let err = (a -. (s -. bb)) -. (b +. bb) in
  (s, err)

let split_factor = 134217729. (* 2^27 + 1 *)

let split a =
  let c = split_factor *. a in
  let hi = c -. (c -. a) in
  (hi, a -. hi)

let two_prod a b =
  let p = a *. b in
  let ahi, alo = split a in
  let bhi, blo = split b in
  let err = alo *. blo -. (p -. (ahi *. bhi) -. (alo *. bhi) -. (ahi *. blo)) in
  (p, err)

(* Expansions: lists of floats, nonoverlapping and sorted by
   increasing magnitude, whose exact sum is the represented value.
   All arithmetic below preserves that invariant (grow-expansion /
   expansion-sum / scale-expansion, following Shewchuk). *)

let expansion_sum e f =
  let add_scalar e b =
    let rec go e q acc =
      match e with
      | [] -> List.rev (q :: acc)
      | h :: t ->
        let s, err = two_sum q h in
        go t s (if err <> 0. then err :: acc else acc)
    in
    go e b []
  in
  List.fold_left add_scalar e f

let expansion_scale e b =
  let rec go e acc =
    match e with
    | [] -> List.rev acc
    | h :: t ->
      let p, err = two_prod h b in
      let acc = if err <> 0. then err :: acc else acc in
      go t (p :: acc)
  in
  (* re-normalize into a valid expansion *)
  expansion_sum [] (go e [])

let expansion_mul p q =
  List.fold_left (fun acc m -> expansion_sum acc (expansion_scale p m)) [] q

let expansion_neg e = List.map (fun x -> -.x) e

let expansion_sub p q = expansion_sum p (expansion_neg q)

let expansion_sign e =
  (* the last nonzero component has the largest magnitude and
     dominates the exact sum *)
  let rec last_nonzero acc = function
    | [] -> acc
    | h :: t -> last_nonzero (if h <> 0. then h else acc) t
  in
  Float.compare (last_nonzero 0. e) 0.

(* exact difference as a (at most two-component) expansion *)
let diff_expansion x y =
  let s, e = two_diff x y in
  if e = 0. then [ s ] else [ e; s ]

let orient2d_det (a : Point.t) (b : Point.t) (c : Point.t) =
  ((b.x -. a.x) *. (c.y -. a.y)) -. ((b.y -. a.y) *. (c.x -. a.x))

let orient2d_exact_sign (a : Point.t) (b : Point.t) (c : Point.t) =
  let bax = diff_expansion b.x a.x in
  let cay = diff_expansion c.y a.y in
  let bay = diff_expansion b.y a.y in
  let cax = diff_expansion c.x a.x in
  expansion_sign (expansion_sub (expansion_mul bax cay) (expansion_mul bay cax))

let orient2d (a : Point.t) (b : Point.t) (c : Point.t) =
  Obs.incr c_orient2d;
  let detleft = (b.x -. a.x) *. (c.y -. a.y) in
  let detright = (b.y -. a.y) *. (c.x -. a.x) in
  let det = detleft -. detright in
  let detsum = Float.abs detleft +. Float.abs detright in
  (* standard error bound for this expression; inconclusive cases fall
     through to the exact evaluation *)
  let bound = 3.3306690738754716e-16 *. detsum in
  let s =
    if det > bound then 1
    else if det < -.bound then -1
    else begin
      Obs.incr c_orient2d_exact;
      orient2d_exact_sign a b c
    end
  in
  if s > 0 then Ccw else if s < 0 then Cw else Collinear

let opposite o1 o2 =
  match (o1, o2) with Ccw, Cw | Cw, Ccw -> true | _ -> false

let incircle_det (a : Point.t) (b : Point.t) (c : Point.t) (d : Point.t) =
  let adx = a.x -. d.x and ady = a.y -. d.y in
  let bdx = b.x -. d.x and bdy = b.y -. d.y in
  let cdx = c.x -. d.x and cdy = c.y -. d.y in
  let alift = (adx *. adx) +. (ady *. ady) in
  let blift = (bdx *. bdx) +. (bdy *. bdy) in
  let clift = (cdx *. cdx) +. (cdy *. cdy) in
  (alift *. ((bdx *. cdy) -. (bdy *. cdx)))
  +. (blift *. ((cdx *. ady) -. (cdy *. adx)))
  +. (clift *. ((adx *. bdy) -. (ady *. bdx)))

let incircle_exact_sign (a : Point.t) (b : Point.t) (c : Point.t)
    (d : Point.t) =
  let adx = diff_expansion a.x d.x and ady = diff_expansion a.y d.y in
  let bdx = diff_expansion b.x d.x and bdy = diff_expansion b.y d.y in
  let cdx = diff_expansion c.x d.x and cdy = diff_expansion c.y d.y in
  let lift x y = expansion_sum (expansion_mul x x) (expansion_mul y y) in
  let minor x1 y1 x2 y2 =
    expansion_sub (expansion_mul x1 y2) (expansion_mul y1 x2)
  in
  let t1 = expansion_mul (lift adx ady) (minor bdx bdy cdx cdy) in
  let t2 = expansion_mul (lift bdx bdy) (minor cdx cdy adx ady) in
  let t3 = expansion_mul (lift cdx cdy) (minor adx ady bdx bdy) in
  expansion_sign (expansion_sum (expansion_sum t1 t2) t3)

let incircle_sign a b c d =
  Obs.incr c_incircle;
  let det = incircle_det a b c d in
  let ax, ay = (a.Point.x -. d.Point.x, a.Point.y -. d.Point.y) in
  let bx, by = (b.Point.x -. d.Point.x, b.Point.y -. d.Point.y) in
  let cx, cy = (c.Point.x -. d.Point.x, c.Point.y -. d.Point.y) in
  let alift = (ax *. ax) +. (ay *. ay) in
  let blift = (bx *. bx) +. (by *. by) in
  let clift = (cx *. cx) +. (cy *. cy) in
  let permanent =
    (alift *. (Float.abs (bx *. cy) +. Float.abs (by *. cx)))
    +. (blift *. (Float.abs (cx *. ay) +. Float.abs (cy *. ax)))
    +. (clift *. (Float.abs (ax *. by) +. Float.abs (ay *. bx)))
  in
  (* conservative filter: the rounded translations alone can carry a
     relative error of a few ulps through the degree-4 polynomial, so
     the bound is deliberately loose — borderline cases go exact *)
  let bound = 1e-14 *. permanent in
  if det > bound then 1
  else if det < -.bound then -1
  else begin
    Obs.incr c_incircle_exact;
    incircle_exact_sign a b c d
  end

let incircle a b c d =
  match orient2d a b c with
  | Ccw -> incircle_sign a b c d > 0
  | Cw -> incircle_sign a c b d > 0
  | Collinear -> false

let collinear a b c = orient2d a b c = Collinear

let between a b p =
  collinear a b p
  && Float.min a.Point.x b.Point.x <= p.Point.x
  && p.Point.x <= Float.max a.Point.x b.Point.x
  && Float.min a.Point.y b.Point.y <= p.Point.y
  && p.Point.y <= Float.max a.Point.y b.Point.y

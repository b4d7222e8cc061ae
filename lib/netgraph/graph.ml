(* One sorted int row per node.  [rows.(u)] holds [u]'s neighbours in
   increasing id order in its first [deg.(u)] slots; the rest is spare
   capacity, doubled when a row fills.  So [degree] is O(1),
   [has_edge] a binary search, an insertion above the row's last entry
   an O(1) append and any other insertion or a removal an O(d) shift.
   Rows are never shared between graphs: [copy], [union] and
   [of_sorted_rows] allocate their own. *)

type t = { rows : int array array; deg : int array; mutable edges : int }

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { rows = Array.make n [||]; deg = Array.make n 0; edges = 0 }

let node_count g = Array.length g.rows
let edge_count g = g.edges

let check g u v =
  let n = node_count g in
  if u < 0 || u >= n || v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Graph: node id out of range (%d, %d)" u v);
  if u = v then invalid_arg "Graph: self-loop"

(* the slot of the first entry of [u]'s row that is >= [v] *)
let slot g u (v : int) =
  let row = g.rows.(u) and d = g.deg.(u) in
  if d = 0 || row.(d - 1) < v then d
  else begin
    let lo = ref 0 and hi = ref (d - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if row.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let present g u i (v : int) = i < g.deg.(u) && g.rows.(u).(i) = v

let insert g u i v =
  let d = g.deg.(u) in
  let row = g.rows.(u) in
  let row =
    if d < Array.length row then row
    else begin
      let r = Array.make (max 4 (2 * d)) 0 in
      Array.blit row 0 r 0 d;
      g.rows.(u) <- r;
      r
    end
  in
  Array.blit row i row (i + 1) (d - i);
  row.(i) <- v;
  g.deg.(u) <- d + 1

let delete g u i =
  let d = g.deg.(u) - 1 in
  let row = g.rows.(u) in
  Array.blit row (i + 1) row i (d - i);
  g.deg.(u) <- d

let add_edge g u v =
  check g u v;
  let i = slot g u v in
  if not (present g u i v) then begin
    insert g u i v;
    insert g v (slot g v u) u;
    g.edges <- g.edges + 1
  end

let remove_edge g u v =
  check g u v;
  let i = slot g u v in
  if present g u i v then begin
    delete g u i;
    delete g v (slot g v u);
    g.edges <- g.edges - 1
  end

let has_edge g u v =
  let n = node_count g in
  u >= 0 && u < n && v >= 0 && v < n && u <> v && present g u (slot g u v) v

let degree g u = g.deg.(u)

let neighbors g u =
  let row = g.rows.(u) in
  let rec go i acc = if i < 0 then acc else go (i - 1) (row.(i) :: acc) in
  go (g.deg.(u) - 1) []

let iter_neighbors g u f =
  let row = g.rows.(u) in
  for i = 0 to g.deg.(u) - 1 do
    f row.(i)
  done

let fold_neighbors g u f init =
  let row = g.rows.(u) in
  let acc = ref init in
  for i = 0 to g.deg.(u) - 1 do
    acc := f !acc row.(i)
  done;
  !acc

let iter_edges g f =
  for u = 0 to node_count g - 1 do
    iter_neighbors g u (fun v -> if u < v then f u v)
  done

let fold_edges g f init =
  let acc = ref init in
  iter_edges g (fun u v -> acc := f !acc u v);
  !acc

let edges g = List.rev (fold_edges g (fun acc u v -> (u, v) :: acc) [])

let compare_edge ((u1 : int), (v1 : int)) (u2, v2) =
  if u1 <> u2 then Int.compare u1 u2 else Int.compare v1 v2

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v) -> add_edge g u v) es;
  g

let of_sorted_rows ~offsets ~targets =
  let n = Array.length offsets - 1 in
  let deg = Array.init n (fun u -> offsets.(u + 1) - offsets.(u)) in
  {
    rows = Array.init n (fun u -> Array.sub targets offsets.(u) deg.(u));
    deg;
    edges = Array.length targets / 2;
  }

let copy g =
  {
    rows = Array.mapi (fun u row -> Array.sub row 0 g.deg.(u)) g.rows;
    deg = Array.copy g.deg;
    edges = g.edges;
  }

let union g1 g2 =
  if node_count g1 <> node_count g2 then
    invalid_arg "Graph.union: node count mismatch";
  let g = copy g1 in
  iter_edges g2 (fun u v -> add_edge g u v);
  g

let is_subgraph g1 g2 =
  node_count g1 = node_count g2
  && fold_edges g1 (fun acc u v -> acc && has_edge g2 u v) true

let induced g keep =
  let h = create (node_count g) in
  iter_edges g (fun u v -> if keep u && keep v then add_edge h u v);
  h

(* equal edge sets over the same nodes are equal sorted rows *)
let equal g1 g2 =
  node_count g1 = node_count g2
  && edge_count g1 = edge_count g2
  &&
  let rec same_rows u =
    u >= node_count g1
    || g1.deg.(u) = g2.deg.(u)
       && same_row u (g1.deg.(u) - 1)
       && same_rows (u + 1)
  and same_row u i =
    i < 0 || (g1.rows.(u).(i) = g2.rows.(u).(i) && same_row u (i - 1))
  in
  same_rows 0

let pp fmt g =
  Format.fprintf fmt "graph(n=%d, m=%d)" (node_count g) (edge_count g)

(* Deterministic hash-table iteration (the D002 allowlist lives here):
   materialize the bindings, sort by key with an explicit comparator,
   then visit.  Callers whose iteration order can reach outputs or
   metrics route through these instead of Hashtbl.iter/fold. *)

let sorted_tbl_bindings cmp tbl =
  List.sort
    (fun (k1, _) (k2, _) -> cmp k1 k2)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let sorted_tbl_iter cmp f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_tbl_bindings cmp tbl)

let sorted_tbl_fold cmp f tbl init =
  List.fold_left
    (fun acc (k, v) -> f k v acc)
    init (sorted_tbl_bindings cmp tbl)

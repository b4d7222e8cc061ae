(* Offsets + flat neighbor array.  Arc [k] for node [u] lives at
   [offsets.(u) <= k < offsets.(u+1)]; every constructor leaves each
   row strictly increasing.
   [ew]/[pw] are empty arrays (not options) so the hot loops index
   them without an indirection; emptiness doubles as the "absent"
   flag — except on a snapshot with no arcs, whose weight arrays are
   empty either way and which counts as weighted. *)

type t = {
  n : int;
  m : int;
  offsets : int array;
  targets : int array;
  ew : float array;  (* Euclidean weight per arc, or [||] *)
  pw : float array;  (* |e|^beta per arc, or [||] *)
}

(* [body u] for every row, on the pool when there is one: row passes
   that write only row [u]'s own slots give the same arrays for any
   job count *)
let each_row ?pool n body =
  match pool with
  | Some p when n > 0 -> Pool.parallel_for p ~n (fun () -> body)
  | _ ->
    for u = 0 to n - 1 do
      body u
    done

(* arc weights row by row: [each n body] runs [body u] for every row
   (serially, or on a pool through [each_row]) *)
let weigh ~each ?points ?beta ~n ~offsets ~targets () =
  match points with
  | None ->
    if beta <> None then invalid_arg "Csr: beta requires points";
    ([||], [||])
  | Some pts ->
    if Array.length pts < n then invalid_arg "Csr: fewer points than nodes";
    let ew = Array.make (Array.length targets) 0. in
    each n (fun u ->
        for k = offsets.(u) to offsets.(u + 1) - 1 do
          ew.(k) <- Geometry.Point.dist pts.(u) pts.(targets.(k))
        done);
    let pw =
      match beta with
      | None -> [||]
      | Some b -> Array.map (fun w -> w ** b) ew
    in
    (ew, pw)

let weights_of =
  weigh ~each:(fun n body ->
      for u = 0 to n - 1 do
        body u
      done)

let of_rows ?points ?beta ~offsets ~targets () =
  let n = Array.length offsets - 1 in
  if n < 0 then invalid_arg "Csr.of_rows: empty offsets";
  if offsets.(0) <> 0 then invalid_arg "Csr.of_rows: offsets.(0) <> 0";
  if offsets.(n) <> Array.length targets then
    invalid_arg "Csr.of_rows: offsets.(n) <> |targets|";
  if Array.length targets land 1 <> 0 then
    invalid_arg "Csr.of_rows: odd arc count";
  for u = 0 to n - 1 do
    if offsets.(u + 1) < offsets.(u) then
      invalid_arg "Csr.of_rows: decreasing offsets";
    for k = offsets.(u) to offsets.(u + 1) - 1 do
      let v = targets.(k) in
      if v < 0 || v >= n || v = u then invalid_arg "Csr.of_rows: bad target";
      if k > offsets.(u) && targets.(k - 1) >= v then
        invalid_arg "Csr.of_rows: row not sorted strictly"
    done
  done;
  let m = Array.length targets / 2 in
  let ew, pw = weights_of ?points ?beta ~n ~offsets ~targets () in
  { n; m; offsets; targets; ew; pw }

let node_count t = t.n
let edge_count t = t.m
let degree t u = t.offsets.(u + 1) - t.offsets.(u)
let offsets t = t.offsets
let targets t = t.targets
let has_weights t = Array.length t.ew > 0 || Array.length t.targets = 0
let has_power_weights t = Array.length t.pw > 0 || Array.length t.targets = 0

let iter_neighbors t u f =
  for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    f t.targets.(k)
  done

let fold_neighbors t u f init =
  let acc = ref init in
  for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
    acc := f !acc t.targets.(k)
  done;
  !acc

let neighbors t u =
  let lo = t.offsets.(u) in
  let rec go k acc = if k < lo then acc else go (k - 1) (t.targets.(k) :: acc) in
  go (t.offsets.(u + 1) - 1) []

let arc t u v =
  let lo = ref t.offsets.(u) and hi = ref (t.offsets.(u + 1) - 1) in
  let k = ref (-1) in
  while !k < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.targets.(mid) in
    if w = v then k := mid else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !k

let mem_edge t u v =
  let lo = ref t.offsets.(u) and hi = ref (t.offsets.(u + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let w = t.targets.(mid) in
    if w = v then found := true
    else if w < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let iter_edges t f =
  for u = 0 to t.n - 1 do
    for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      let v = t.targets.(k) in
      if u < v then f u v
    done
  done

let fold_edges t f init =
  let acc = ref init in
  iter_edges t (fun u v -> acc := f !acc u v);
  !acc

let edges t = List.rev (fold_edges t (fun acc u v -> (u, v) :: acc) [])

let with_weights ?beta t points =
  let ew, pw =
    weights_of ~points ?beta ~n:t.n ~offsets:t.offsets ~targets:t.targets ()
  in
  { t with ew; pw }

let adopt ?pool ?points ?beta ~offsets ~targets () =
  let n = Array.length offsets - 1 in
  let ew, pw =
    weigh ~each:(each_row ?pool) ?points ?beta ~n ~offsets ~targets ()
  in
  { n; m = Array.length targets / 2; offsets; targets; ew; pw }

(* Both arcs of every edge land in their rows unsorted; each row is
   then sorted and its duplicates dropped, compacting the rows left in
   place (a row's write position never passes its read position). *)
let of_edges n es =
  if n < 0 then invalid_arg "Csr.of_edges: negative size";
  let bound = Array.make (n + 1) 0 in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n || v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Csr.of_edges: node id out of range (%d, %d)" u v);
      if u = v then invalid_arg "Csr.of_edges: self-loop";
      bound.(u + 1) <- bound.(u + 1) + 1;
      bound.(v + 1) <- bound.(v + 1) + 1)
    es;
  for u = 0 to n - 1 do
    bound.(u + 1) <- bound.(u) + bound.(u + 1)
  done;
  let arcs = Array.make bound.(n) 0 in
  let next = Array.sub bound 0 n in
  List.iter
    (fun (u, v) ->
      arcs.(next.(u)) <- v;
      next.(u) <- next.(u) + 1;
      arcs.(next.(v)) <- u;
      next.(v) <- next.(v) + 1)
    es;
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    let row = Array.sub arcs bound.(u) (bound.(u + 1) - bound.(u)) in
    Array.sort Int.compare row;
    let w = ref offsets.(u) in
    Array.iteri
      (fun i v ->
        if i = 0 || row.(i - 1) <> v then begin
          arcs.(!w) <- v;
          incr w
        end)
      row;
    offsets.(u + 1) <- !w
  done;
  adopt ~offsets ~targets:(Array.sub arcs 0 offsets.(n)) ()

let equal a b =
  let same x y =
    Array.length x = Array.length y && Array.for_all2 Int.equal x y
  in
  a.n = b.n && same a.offsets b.offsets && same a.targets b.targets

(* Row filter: a subset of sorted rows is sorted, so no sort or
   dedup.  The row passes (count, fill, weigh) write only row [u]'s
   own slots, so they fan out over the pool and the result is the
   same for any job count.  The rows come from a valid snapshot, so
   [of_rows]'s checks are skipped; [keep] must be symmetric for the
   result to be one.  [count u] and [fill u targets w] are the passes
   over row [u] of [t]; [fill] writes the kept targets from slot [w]
   on. *)
let select ?pool ?points t ~count ~fill =
  let n = t.n in
  let offsets = Array.make (n + 1) 0 in
  each_row ?pool n (fun u -> offsets.(u + 1) <- count u);
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + offsets.(u + 1)
  done;
  let targets = Array.make offsets.(n) 0 in
  each_row ?pool n (fun u -> fill u targets offsets.(u));
  adopt ?pool ?points ~offsets ~targets ()

let filter ?pool ?points t keep =
  select ?pool ?points t
    ~count:(fun u ->
      let c = ref 0 in
      for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
        if keep u t.targets.(k) then incr c
      done;
      !c)
    ~fill:(fun u targets w ->
      let w = ref w in
      for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
        let v = t.targets.(k) in
        if keep u v then begin
          targets.(!w) <- v;
          incr w
        end
      done)

let filter_arcs ?pool ?points t keep =
  select ?pool ?points t
    ~count:(fun u ->
      let c = ref 0 in
      for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
        if keep k then incr c
      done;
      !c)
    ~fill:(fun u targets w ->
      let w = ref w in
      for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
        if keep k then begin
          targets.(!w) <- t.targets.(k);
          incr w
        end
      done)

(* ---------------- traversals ---------------- *)

let bfs_into t ~dist ~queue s =
  Array.fill dist 0 t.n max_int;
  dist.(s) <- 0;
  queue.(0) <- s;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      let v = t.targets.(k) in
      if dist.(v) = max_int then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

let bfs t s =
  let dist = Array.make t.n max_int in
  if t.n > 0 then bfs_into t ~dist ~queue:(Array.make t.n 0) s;
  dist

(* One SSSP body over a caller-chosen arc-weight array.  Stale heap
   entries are recognized by key: [dist] only ever decreases, so the
   single entry whose key equals the final distance settles the node
   and every other (strictly larger) entry is skipped. *)
(* [target] >= 0 stops the search once it is settled *)
let sssp_into t w ~heap ~dist ~target s =
  Array.fill dist 0 t.n infinity;
  dist.(s) <- 0.;
  Heap.clear heap;
  Heap.push_at heap dist s;
  (* an entry is current exactly when its key is still dist.(u) (a
     key is dist.(u) when pushed, and dist only falls), so d below is
     the key; keys travel in arrays, and the steady loop boxes no
     float *)
  while not (Heap.is_empty heap) do
    let u = Heap.min_value heap in
    let current = Heap.min_within heap dist in
    Heap.remove_min heap;
    if current && u = target then Heap.clear heap
    else if current then begin
      let d = dist.(u) in
      for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
        let v = t.targets.(k) in
        let nd = d +. w.(k) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          Heap.push_at heap dist v
        end
      done
    end
  done

let dijkstra_into t ~heap ~dist s =
  if not (has_weights t) then
    invalid_arg "Csr.dijkstra: snapshot built without points";
  sssp_into t t.ew ~heap ~dist ~target:(-1) s

let dijkstra_to t ~heap ~dist s d =
  if not (has_weights t) then
    invalid_arg "Csr.dijkstra: snapshot built without points";
  sssp_into t t.ew ~heap ~dist ~target:d s

let power_into t ~heap ~dist s =
  if not (has_power_weights t) then
    invalid_arg "Csr.power_sssp: snapshot built without beta";
  sssp_into t t.pw ~heap ~dist ~target:(-1) s

let dijkstra t s =
  let dist = Array.make (max 1 t.n) infinity in
  dijkstra_into t ~heap:(Heap.create ()) ~dist s;
  dist

let power_sssp t s =
  let dist = Array.make (max 1 t.n) infinity in
  power_into t ~heap:(Heap.create ()) ~dist s;
  dist

(* ---------------- components ---------------- *)

let component_labels t =
  let label = Array.make t.n (-1) in
  let queue = Array.make (max 1 t.n) 0 in
  for s = 0 to t.n - 1 do
    if label.(s) = -1 then begin
      label.(s) <- s;
      queue.(0) <- s;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for k = t.offsets.(u) to t.offsets.(u + 1) - 1 do
          let v = t.targets.(k) in
          if label.(v) = -1 then begin
            label.(v) <- s;
            queue.(!tail) <- v;
            incr tail
          end
        done
      done
    end
  done;
  label

let is_connected t =
  t.n = 0
  ||
  let label = component_labels t in
  Array.for_all (fun l -> l = 0) label

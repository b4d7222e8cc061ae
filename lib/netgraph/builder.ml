(* Append-only edge accumulator sealed into a CSR snapshot.

   The buffer is one flat int array of packed (u, v) records, so a
   million appended edges cost two words each and zero GC pressure.
   Duplicates are allowed (and cheap): sealing counting-sorts the
   arcs into rows, sorts each row, and drops adjacent duplicates, so
   the sealed snapshot depends only on the accumulated edge *set* —
   never on insertion order.  That is what lets per-tile workers
   append independently and still stitch deterministically. *)

type t = {
  n : int;
  mutable buf : int array;  (* packed: buf.(2k) = u, buf.(2k+1) = v *)
  mutable len : int;  (* appended edge records, including duplicates *)
}

let create n =
  if n < 0 then invalid_arg "Builder.create: negative node count";
  { n; buf = Array.make (max 2 (2 * 16)) 0; len = 0 }

let node_count b = b.n
let pending b = b.len

let ensure b extra =
  let need = 2 * (b.len + extra) in
  if need > Array.length b.buf then begin
    let cap = ref (Array.length b.buf) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let buf = Array.make !cap 0 in
    Array.blit b.buf 0 buf 0 (2 * b.len);
    b.buf <- buf
  end

let add_edge b u v =
  if u = v then invalid_arg "Builder.add_edge: self-loop";
  if u < 0 || v < 0 || u >= b.n || v >= b.n then
    invalid_arg "Builder.add_edge: node out of range";
  ensure b 1;
  b.buf.(2 * b.len) <- u;
  b.buf.((2 * b.len) + 1) <- v;
  b.len <- b.len + 1

let add_edges b es = List.iter (fun (u, v) -> add_edge b u v) es
let add_graph b g = Graph.iter_edges g (add_edge b)

let append ~into b =
  if into.n <> b.n then invalid_arg "Builder.append: node count mismatch";
  ensure into b.len;
  Array.blit b.buf 0 into.buf (2 * into.len) (2 * b.len);
  into.len <- into.len + b.len

(* in-place sort of targets.(lo .. hi-1); rows are small (node
   degrees), so insertion sort is both simplest and fastest *)
let sort_row (targets : int array) lo hi =
  for k = lo + 1 to hi - 1 do
    let x = targets.(k) in
    let j = ref (k - 1) in
    while !j >= lo && targets.(!j) > x do
      targets.(!j + 1) <- targets.(!j);
      decr j
    done;
    targets.(!j + 1) <- x
  done

let seal ?pool ?points ?beta b =
  let n = b.n in
  let each body =
    match pool with
    | Some p when n > 0 -> Pool.parallel_for p ~n (fun () -> body)
    | _ ->
      for u = 0 to n - 1 do
        body u
      done
  in
  (* arc counts, duplicates included *)
  let deg = Array.make (n + 1) 0 in
  for k = 0 to b.len - 1 do
    deg.(b.buf.(2 * k)) <- deg.(b.buf.(2 * k)) + 1;
    deg.(b.buf.((2 * k) + 1)) <- deg.(b.buf.((2 * k) + 1)) + 1
  done;
  let off = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    off.(u + 1) <- off.(u) + deg.(u)
  done;
  let cursor = Array.copy off in
  let raw = Array.make (2 * b.len) 0 in
  for k = 0 to b.len - 1 do
    let u = b.buf.(2 * k) and v = b.buf.((2 * k) + 1) in
    raw.(cursor.(u)) <- v;
    cursor.(u) <- cursor.(u) + 1;
    raw.(cursor.(v)) <- u;
    cursor.(v) <- cursor.(v) + 1
  done;
  (* per-row passes touch disjoint segments, so they fan out over the
     pool; each row's result is independent of scheduling.  The first
     sorts a row and counts its distinct entries into [deg], the
     second drops the adjacent duplicates into the final row, and
     [Csr.adopt] weighs the rows in a third *)
  each (fun u ->
      sort_row raw off.(u) off.(u + 1);
      let c = ref 0 in
      for k = off.(u) to off.(u + 1) - 1 do
        if k = off.(u) || raw.(k) <> raw.(k - 1) then incr c
      done;
      deg.(u) <- !c);
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + deg.(u)
  done;
  let targets = Array.make offsets.(n) 0 in
  each (fun u ->
      let w = ref offsets.(u) in
      for k = off.(u) to off.(u + 1) - 1 do
        if k = off.(u) || raw.(k) <> raw.(k - 1) then begin
          targets.(!w) <- raw.(k);
          incr w
        end
      done);
  Csr.adopt ?pool ?points ?beta ~offsets ~targets ()

(* Classic binary heap in two parallel arrays; index 0 is the root,
   children of [i] at [2i+1] and [2i+2]. *)

type t = {
  mutable keys : float array;
  mutable vals : int array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  let capacity = max 1 capacity in
  { keys = Array.make capacity 0.; vals = Array.make capacity 0; size = 0 }

let length h = h.size
let is_empty h = h.size = 0
let clear h = h.size <- 0

let grow h =
  let cap = 2 * Array.length h.keys in
  let keys = Array.make cap 0. and vals = Array.make cap 0 in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.vals 0 vals 0 h.size;
  h.keys <- keys;
  h.vals <- vals

(* sift up the entry staged at the hole [h.keys.(h.size)]: the key
   travels in the array, so no float crosses a call (a float argument
   is boxed wherever the call is not inlined) *)
let sift_up h value =
  let key = h.keys.(h.size) in
  (* sift up by moving the hole, writing the new entry once *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if Float.compare h.keys.(p) key > 0 then begin
      h.keys.(!i) <- h.keys.(p);
      h.vals.(!i) <- h.vals.(p);
      i := p
    end
    else continue := false
  done;
  h.keys.(!i) <- key;
  h.vals.(!i) <- value

let push h key value =
  if h.size = Array.length h.keys then grow h;
  h.keys.(h.size) <- key;
  sift_up h value

let push_at h keys value =
  if h.size = Array.length h.keys then grow h;
  h.keys.(h.size) <- keys.(value);
  sift_up h value

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty";
  h.keys.(0)

let min_value h =
  if h.size = 0 then invalid_arg "Heap.min_value: empty";
  h.vals.(0)

let min_within h keys =
  if h.size = 0 then invalid_arg "Heap.min_within: empty";
  h.keys.(0) <= keys.(h.vals.(0))

let remove_min h =
  if h.size = 0 then invalid_arg "Heap.remove_min: empty";
  h.size <- h.size - 1;
  if h.size > 0 then begin
    let key = h.keys.(h.size) and value = h.vals.(h.size) in
    (* sift the last entry down from the root *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = ref !i and skey = ref key in
      if l < h.size && Float.compare h.keys.(l) !skey < 0 then begin
        smallest := l;
        skey := h.keys.(l)
      end;
      if r < h.size && Float.compare h.keys.(r) !skey < 0 then smallest := r;
      if !smallest <> !i then begin
        h.keys.(!i) <- h.keys.(!smallest);
        h.vals.(!i) <- h.vals.(!smallest);
        i := !smallest
      end
      else continue := false
    done;
    h.keys.(!i) <- key;
    h.vals.(!i) <- value
  end

let pop h =
  if h.size = 0 then None
  else begin
    let top = (h.keys.(0), h.vals.(0)) in
    remove_min h;
    Some top
  end

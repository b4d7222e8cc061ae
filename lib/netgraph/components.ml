(* A component's label is its smallest node id, so each component has
   exactly one node labelled with itself. *)
let count g =
  let label = Csr.component_labels g in
  let c = ref 0 in
  Array.iteri (fun i l -> if l = i then incr c) label;
  !c

(* BFS over the members only: [stamp] is 1 on a member, 2 once seen *)
let connected_within g nodes =
  match nodes with
  | [] | [ _ ] -> true
  | s :: _ ->
    let stamp = Bytes.make (Csr.node_count g) '\000' in
    List.iter (fun u -> Bytes.set stamp u '\001') nodes;
    let queue = Array.make (List.length nodes) 0 in
    Bytes.set stamp s '\002';
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      Csr.iter_neighbors g u (fun v ->
          if Bytes.get stamp v = '\001' then begin
            Bytes.set stamp v '\002';
            queue.(!tail) <- v;
            incr tail
          end)
    done;
    List.for_all (fun u -> Bytes.get stamp u = '\002') nodes

let reachable g s =
  let dist = Csr.bfs g s in
  let acc = ref [] in
  for i = Array.length dist - 1 downto 0 do
    if dist.(i) <> max_int then acc := i :: !acc
  done;
  !acc

let is_connected = Csr.is_connected

(* Graph helpers the tests share: set relations between sealed
   graphs, which the library itself has no use for. *)

module C = Netgraph.Csr

(* same node set, and every edge of [a] is an edge of [b] *)
let is_subgraph a b =
  C.node_count a = C.node_count b
  && C.fold_edges a (fun ok u v -> ok && C.mem_edge b u v) true

(* every edge of both, on [a]'s node set *)
let union a b = C.of_edges (C.node_count a) (C.edges a @ C.edges b)

(* An LDel build read off as sorted lists, with its two graphs: the
   form the tests compare against list oracles and the protocol. *)
type ldel = {
  gabriel_edges : (int * int) list;  (** with [u < v], sorted *)
  triangles : (int * int * int) list;  (** accepted, sorted triples *)
  kept_triangles : (int * int * int) list;  (** surviving Algorithm 3 *)
  ldel1 : C.t;
  planar : C.t;
}

(* [csr] is the graph [t] was built on *)
let ldel csr (t : Core.Ldel.t) =
  let off = C.offsets csr and adj = C.targets csr in
  let gabriel = ref [] in
  for u = C.node_count csr - 1 downto 0 do
    for k = off.(u + 1) - 1 downto off.(u) do
      if Bytes.get t.Core.Ldel.gabriel k <> '\000' then
        gabriel := (u, adj.(k)) :: !gabriel
    done
  done;
  let tri = t.Core.Ldel.tri in
  let triangles = ref [] and kept = ref [] in
  for i = (Array.length tri / 3) - 1 downto 0 do
    let abc = (tri.(3 * i), tri.((3 * i) + 1), tri.((3 * i) + 2)) in
    triangles := abc :: !triangles;
    if Bytes.get t.Core.Ldel.kept i <> '\000' then kept := abc :: !kept
  done;
  {
    gabriel_edges = !gabriel;
    triangles = !triangles;
    kept_triangles = !kept;
    ldel1 =
      C.of_edges (C.node_count csr)
        (!gabriel
        @ List.concat_map
            (fun (a, b, c) -> [ (a, b); (b, c); (a, c) ])
            !triangles);
    planar = Core.Ldel.planar csr t;
  }

let ldel_build g points ~radius = ldel g (Core.Ldel.build g points ~radius)

let ldel_build_k g points ~radius ~k =
  ldel g (Core.Ldel.build_k g points ~radius ~k)

(* the three lists, for comparing against an oracle *)
let ldel_lists l = (l.gabriel_edges, l.triangles, l.kept_triangles)

(* Sharded, CSR-native construction pipeline (DESIGN.md §10): the
   library's one implementation of UDG → MIS → connectors → LDel.

   The deployment square is cut into grid tiles whose side is at
   least the transmission radius; a tile's bucket is its ownership
   set.  Every stage then runs per-tile against the immutable CSR
   snapshot of the previous stage — MIS in pass-synchronous rounds,
   connector elections and LDel acceptance from each item's owning
   tile — and per-tile results are stitched by deterministic sorted
   merges.  One tile is the serial build; with more than one tile and
   more than one job the stages fan out on a Domain pool.  No stage
   consults a mutable Hashtbl graph; every intermediate is a sealed
   CSR.  The outputs are bit-identical for any tile count and any job
   count (asserted by the shard test suite), and equal to the
   distributed [Protocol]'s (asserted by the protocol tests). *)

module Csr = Netgraph.Csr

type snapshot = {
  points : Geometry.Point.t array;
  radius : float;
  owners : int array array;  (* tile ownership sets, ascending ids *)
  udg : Csr.t;
  roles : Mis.role array;
  connectors : Connectors.t;
  ldel : Ldel.csr_parts;
  backbone : bool array;
  cds : Csr.t;
  cds' : Csr.t;
  icds : Csr.t;
  icds' : Csr.t;
  pldel : Csr.t;
  pldel' : Csr.t;
}

(* Per-axis tile count whose average tile holds ~4k nodes — small
   enough for balance, large enough that per-tile overhead is noise. *)
let auto_tiles_per_axis n =
  max 1 (int_of_float (sqrt (float_of_int n /. 4096.) +. 0.5))

let tiling ?tiles points ~radius =
  if radius <= 0. then invalid_arg "Shard.tiling: radius <= 0";
  let n = Array.length points in
  if n = 0 then [| [||] |]
  else begin
    let k =
      match tiles with
      | Some k when k >= 1 -> k
      | Some _ -> invalid_arg "Shard.tiling: tiles < 1"
      | None -> auto_tiles_per_axis n
    in
    (* tile side >= radius keeps halos at one ring of tiles; the grid
       clamps the per-axis count accordingly.  The grid opens a fresh
       cell wherever the span is a whole multiple of the side, so the
       side is stretched by a hair: [tiles = k] then cuts exactly k
       tiles per axis instead of k plus a sliver holding the far
       boundary nodes. *)
    let module P = Geometry.Point in
    let x0 = ref infinity and y0 = ref infinity in
    let x1 = ref neg_infinity and y1 = ref neg_infinity in
    Array.iter
      (fun (p : P.t) ->
        if p.x < !x0 then x0 := p.x;
        if p.x > !x1 then x1 := p.x;
        if p.y < !y0 then y0 := p.y;
        if p.y > !y1 then y1 := p.y)
      points;
    let side = Float.max (!x1 -. !x0) (!y1 -. !y0) in
    let cell = Float.max radius (side /. float_of_int k) *. (1. +. 1e-9) in
    let grid = Wireless.Cellgrid.create ~cell_size:cell points in
    Array.init (Wireless.Cellgrid.cells grid) (Wireless.Cellgrid.nodes_of grid)
  end

(* [pldel] as a row filter of the ICDS: one byte per ICDS arc, set
   on both arcs of each Gabriel edge and of each edge of a kept
   triangle.  Gabriel edges are marked from their owner arc's row and
   triangles from their place in [tri] (min corner first), on the
   pool; two workers may set one byte, but only ever to the same
   value, so the marks after the join are the same for any job
   count. *)
let seal_pldel ?pool icds points { Ldel.gabriel; tri; kept } =
  let off = Csr.offsets icds and adj = Csr.targets icds in
  let mark = Bytes.make (Array.length adj) '\000' in
  let link a b =
    Bytes.set mark (Csr.arc icds a b) '\001';
    Bytes.set mark (Csr.arc icds b a) '\001'
  in
  let each n body =
    match pool with
    | Some p when n > 0 ->
      Obs.quiesced (fun () -> Netgraph.Pool.parallel_for p ~n (fun () -> body))
    | _ ->
      for i = 0 to n - 1 do
        body i
      done
  in
  each (Csr.node_count icds) (fun u ->
      for k = off.(u) to off.(u + 1) - 1 do
        if Bytes.get gabriel k <> '\000' then begin
          Bytes.set mark k '\001';
          Bytes.set mark (Csr.arc icds adj.(k) u) '\001'
        end
      done);
  each (Bytes.length kept) (fun t ->
      if Bytes.get kept t <> '\000' then begin
        let a = tri.(3 * t) and b = tri.((3 * t) + 1) and c = tri.((3 * t) + 2) in
        link a b;
        link b c;
        link a c
      end);
  Csr.filter_arcs ?pool ~points icds (fun k -> Bytes.get mark k <> '\000')

let pipeline ?(jobs = 1) ?tiles ?priority ?udg points ~radius =
  Obs.span "shard" (fun () ->
      let owners =
        Obs.span "shard.tiling" (fun () -> tiling ?tiles points ~radius)
      in
      Obs.set_gauge (Obs.gauge "shard.tiles")
        (float_of_int (Array.length owners));
      let pop = Obs.dist "shard.tile_pop" in
      Array.iter
        (fun tile -> Obs.observe pop (float_of_int (Array.length tile)))
        owners;
      (* one tile has nothing to fan out: run it on the caller domain *)
      let with_pool f =
        if jobs > 1 && Array.length owners > 1 then
          Netgraph.Pool.with_pool ~jobs (fun p -> f (Some p))
        else f None
      in
      with_pool @@ fun pool ->
      let udg =
        match udg with
        | Some csr ->
          if Csr.node_count csr <> Array.length points then
            invalid_arg "Shard.pipeline: udg node count mismatch";
          csr
        | None ->
          Obs.span "shard.udg" (fun () ->
              Wireless.Udg.build_csr ?pool points ~radius)
      in
      let roles =
        Obs.span "shard.mis" (fun () ->
            Mis.compute_csr ?pool ~owners ?priority udg)
      in
      let connectors =
        Obs.span "shard.connectors" (fun () ->
            Connectors.find_csr ?pool ~owners udg roles)
      in
      let n = Array.length points in
      let backbone, link, icds', icds, ldel =
        Obs.span "shard.ldel" (fun () ->
            let backbone =
              Array.init n (fun u ->
                  roles.(u) = Mis.Dominator
                  || connectors.Connectors.connector.(u))
            in
            (* one byte per node, bit 0 dominator, bit 1 backbone: the
               row filters look these up at every neighbour id, and
               1 MB at n = 10^6 stays in cache where two word arrays
               (16 MB) do not *)
            let kinds =
              Bytes.init n (fun u ->
                  Char.chr
                    ((if roles.(u) = Mis.Dominator then 1 else 0)
                    lor if backbone.(u) then 2 else 0))
            in
            let kind u = Char.code (Bytes.get kinds u) in
            (* a dominatee-dominator link: a UDG edge whose ends have
               different roles *)
            let link u v = (kind u lxor kind v) land 1 <> 0 in
            let both_backbone u v = kind u land kind v land 2 <> 0 in
            (* the one pass over the UDG after the elections: every
               later structure is a row filter of [icds'] or of the
               ICDS *)
            let icds' =
              Obs.span "ldel.icds'" (fun () ->
                  Csr.filter ?pool udg (fun u v ->
                      link u v || both_backbone u v))
            in
            (* LDel of the induced backbone ICDS *)
            let icds =
              Obs.span "ldel.icds" (fun () ->
                  Csr.filter ?pool icds' both_backbone)
            in
            ( backbone,
              link,
              icds',
              icds,
              Ldel.build_csr ?pool ~owners icds points ~radius ))
      in
      (* [cds] holds connector-path edges and [pldel] sits inside the
         ICDS, so both lie in [icds'], and each primed variant is the
         row filter of [icds'] to the unprimed edges plus the links.
         [pldel] itself is the ICDS filtered to the arcs LDel marks.
         DESIGN.md §10. *)
      Obs.span "shard.assemble" (fun () ->
          let cds = connectors.Connectors.cds in
          let cds' =
            Obs.span "assemble.cds'" (fun () ->
                Csr.filter ?pool icds' (fun u v ->
                    link u v || Csr.mem_edge cds u v))
          in
          let pldel =
            Obs.span "assemble.pldel" (fun () -> seal_pldel ?pool icds points ldel)
          in
          let pldel' =
            Obs.span "assemble.pldel'" (fun () ->
                Csr.filter ?pool ~points icds' (fun u v ->
                    link u v || Csr.mem_edge pldel u v))
          in
          {
            points;
            radius;
            owners;
            udg;
            roles;
            connectors;
            ldel;
            backbone;
            cds;
            cds';
            icds;
            icds';
            pldel;
            pldel';
          }))

type degree_stats = { deg_avg : float; deg_max : int; edges : int }

let degree_stats g =
  let n = Csr.node_count g in
  let m = Csr.edge_count g in
  let deg_max = ref 0 in
  for u = 0 to n - 1 do
    let d = Csr.degree g u in
    if d > !deg_max then deg_max := d
  done;
  {
    deg_avg = (if n = 0 then 0. else 2. *. float_of_int m /. float_of_int n);
    deg_max = !deg_max;
    edges = m;
  }

type stretch = {
  len_avg : float;
  len_max : float;
  hop_avg : float;
  hop_max : float;
}

type combined = { c_stretch : stretch; c_power : (float * float) option }

let c_sources = Obs.counter "metrics.sources"
let c_sssp = Obs.counter "metrics.sssp"

(* Dijkstra with arbitrary edge costs — the generic escape hatch for
   costs that are not precomputable per arc.  The engine below never
   calls this; it runs on CSR snapshots with baked-in weights. *)
let weighted_sssp g cost s =
  let n = Csr.node_count g in
  let dist = Array.make n infinity in
  dist.(s) <- 0.;
  let heap = Heap.create () in
  Heap.push heap 0. s;
  while not (Heap.is_empty heap) do
    let d = Heap.min_key heap in
    let u = Heap.min_value heap in
    Heap.remove_min heap;
    if d <= dist.(u) then
      Csr.iter_neighbors g u (fun v ->
          let nd = d +. cost u v in
          if nd < dist.(v) then begin
            dist.(v) <- nd;
            Heap.push heap nd v
          end)
  done;
  dist

(* ------------------------------------------------------------------ *)
(* The fused all-pairs stretch engine.                                 *)
(*                                                                     *)
(* One pass per source computes every requested metric (Euclidean      *)
(* length, hop count, power cost) for the base graph once and for      *)
(* each compared substructure, then scans targets a single time to     *)
(* accumulate sum / max / pair-count partials.  Partials live in       *)
(* per-source slots, so worker domains never share mutable state and   *)
(* the final reduction folds sources in index order — results are      *)
(* independent of the worker count.                                    *)
(* ------------------------------------------------------------------ *)

(* [g] with the arc weights the engine reads: a snapshot that already
   has them is used as is (its weights are trusted to be those of
   [points]), any other gets them computed from [points]. *)
let weighted ?beta points g =
  let ok =
    Csr.has_weights g && (Option.is_none beta || Csr.has_power_weights g)
  in
  if ok then g else Csr.with_weights ?beta g points

let fused ~one_hop_direct ~jobs ~want_len ~want_hop ~beta ~base points subs =
  let n = Csr.node_count base in
  List.iter
    (fun (_, sub) ->
      if Csr.node_count sub <> n then
        invalid_arg "Metrics: node count mismatch")
    subs;
  let want_pow = beta <> None in
  let nsubs = List.length subs in
  let base_w = weighted ?beta points base in
  (* a sub that is the base itself (Table I's UDG row) shares its CSR,
     and its distances are the base's: no SSSP runs for it *)
  let subs_w =
    Array.of_list
      (List.map
         (fun (_, g) ->
           if g == base then base_w else weighted ?beta points g)
         subs)
  in
  let own_subs =
    Array.fold_left
      (fun c sub -> if sub != base_w then c + 1 else c)
      0 subs_w
  in
  (* per-(sub, source) partial accumulators; [||] when the metric is
     off so a stray access fails loudly *)
  let slab want = if want then Array.init nsubs (fun _ -> Array.make n 0.) else [||] in
  let islab want = if want then Array.init nsubs (fun _ -> Array.make n 0) else [||] in
  let len_sum = slab want_len and len_mx = slab want_len and len_cnt = islab want_len in
  let hop_sum = slab want_hop and hop_mx = slab want_hop and hop_cnt = islab want_hop in
  let pow_sum = slab want_pow and pow_mx = slab want_pow and pow_cnt = islab want_pow in
  (* errors.(k).(s) = first target of a base-connected pair that the
     substructure disconnects, or -1 *)
  let errors = Array.init nsubs (fun _ -> Array.make n (-1)) in
  let mk_body () =
    (* per-worker scratch: reused across all sources this worker runs *)
    let heap = Heap.create ~capacity:1024 () in
    let queue = if want_hop then Array.make (max 1 n) 0 else [||] in
    let farr want = if want then Array.make n infinity else [||] in
    let iarr want = if want then Array.make n max_int else [||] in
    let db_len = farr want_len and ds_len = farr want_len in
    let db_hop = iarr want_hop and ds_hop = iarr want_hop in
    let db_pow = farr want_pow and ds_pow = farr want_pow in
    let adj = Bytes.make (max 1 n) '\000' in
    fun s ->
      if !Obs.Trace.on then Obs.Trace.span_begin "metrics.source";
      if want_len then Csr.dijkstra_into base_w ~heap ~dist:db_len s;
      if want_hop then Csr.bfs_into base_w ~dist:db_hop ~queue s;
      if want_pow then Csr.power_into base_w ~heap ~dist:db_pow s;
      if one_hop_direct then
        Csr.iter_neighbors base_w s (fun v -> Bytes.set adj v '\001');
      for k = 0 to nsubs - 1 do
        let sub = subs_w.(k) in
        let own = sub != base_w in
        if own then begin
          if want_len then Csr.dijkstra_into sub ~heap ~dist:ds_len s;
          if want_hop then Csr.bfs_into sub ~dist:ds_hop ~queue s;
          if want_pow then Csr.power_into sub ~heap ~dist:ds_pow s
        end;
        let ds_len = if own then ds_len else db_len in
        let ds_hop = if own then ds_hop else db_hop in
        let ds_pow = if own then ds_pow else db_pow in
        let lsum = ref 0. and lmx = ref 0. and lcnt = ref 0 in
        let hsum = ref 0. and hmx = ref 0. and hcnt = ref 0 in
        let psum = ref 0. and pmx = ref 0. and pcnt = ref 0 in
        let err = ref (-1) in
        for t = s + 1 to n - 1 do
          if one_hop_direct && Bytes.get adj t = '\001' then begin
            (* the paper's routing sends directly to in-range nodes,
               so adjacent pairs have stretch exactly 1 *)
            if want_len then begin
              lsum := !lsum +. 1.;
              if !lmx < 1. then lmx := 1.;
              incr lcnt
            end;
            if want_hop then begin
              hsum := !hsum +. 1.;
              if !hmx < 1. then hmx := 1.;
              incr hcnt
            end;
            if want_pow then begin
              psum := !psum +. 1.;
              if !pmx < 1. then pmx := 1.;
              incr pcnt
            end
          end
          else begin
            let base_conn =
              if want_len then db_len.(t) <> infinity
              else if want_hop then db_hop.(t) <> max_int
              else db_pow.(t) <> infinity
            in
            if base_conn then begin
              let sub_conn =
                if want_len then ds_len.(t) <> infinity
                else if want_hop then ds_hop.(t) <> max_int
                else ds_pow.(t) <> infinity
              in
              if not sub_conn then begin
                if !err < 0 then err := t
              end
              else begin
                if want_len then begin
                  let b = db_len.(t) in
                  if b > 0. then begin
                    let r = ds_len.(t) /. b in
                    lsum := !lsum +. r;
                    if r > !lmx then lmx := r;
                    incr lcnt
                  end
                end;
                if want_hop then begin
                  let b = float_of_int db_hop.(t) in
                  if b > 0. then begin
                    let r = float_of_int ds_hop.(t) /. b in
                    hsum := !hsum +. r;
                    if r > !hmx then hmx := r;
                    incr hcnt
                  end
                end;
                if want_pow then begin
                  let b = db_pow.(t) in
                  if b > 0. then begin
                    let r = ds_pow.(t) /. b in
                    psum := !psum +. r;
                    if r > !pmx then pmx := r;
                    incr pcnt
                  end
                end
              end
            end
          end
        done;
        if want_len then begin
          len_sum.(k).(s) <- !lsum;
          len_mx.(k).(s) <- !lmx;
          len_cnt.(k).(s) <- !lcnt
        end;
        if want_hop then begin
          hop_sum.(k).(s) <- !hsum;
          hop_mx.(k).(s) <- !hmx;
          hop_cnt.(k).(s) <- !hcnt
        end;
        if want_pow then begin
          pow_sum.(k).(s) <- !psum;
          pow_mx.(k).(s) <- !pmx;
          pow_cnt.(k).(s) <- !pcnt
        end;
        errors.(k).(s) <- !err
      done;
      if one_hop_direct then
        Csr.iter_neighbors base_w s (fun v -> Bytes.set adj v '\000');
      if !Obs.Trace.on then Obs.Trace.span_end "metrics.source"
  in
  let jobs = max 1 (min jobs (max 1 n)) in
  Obs.span "metrics.stretch" (fun () ->
      Pool.with_pool ~jobs (fun pool -> Pool.parallel_for pool ~n mk_body));
  let passes =
    (if want_len then 1 else 0)
    + (if want_hop then 1 else 0)
    + if want_pow then 1 else 0
  in
  Obs.add c_sources n;
  Obs.add c_sssp (n * (own_subs + 1) * passes);
  (* a substructure that loses connectivity is not a spanner at all:
     raise like the sequential implementation always did, for the
     lexicographically first offending pair of the first bad sub *)
  Array.iter
    (fun per_source ->
      Array.iteri
        (fun s t ->
          if t >= 0 then
            invalid_arg
              (Printf.sprintf
                 "Metrics.stretch_factors: pair (%d, %d) connected in base \
                  but not in subgraph"
                 s t))
        per_source)
    errors;
  (* deterministic reduction: fold per-source partials in source order *)
  let reduce sum mx cnt k =
    let s = ref 0. and m = ref 0. and c = ref 0 in
    for src = 0 to n - 1 do
      s := !s +. sum.(k).(src);
      if mx.(k).(src) > !m then m := mx.(k).(src);
      c := !c + cnt.(k).(src)
    done;
    if !c = 0 then (1., 1.) else (!s /. float_of_int !c, !m)
  in
  List.mapi
    (fun k (name, _) ->
      let len_avg, len_max =
        if want_len then reduce len_sum len_mx len_cnt k else (1., 1.)
      in
      let hop_avg, hop_max =
        if want_hop then reduce hop_sum hop_mx hop_cnt k else (1., 1.)
      in
      let c_power =
        if want_pow then Some (reduce pow_sum pow_mx pow_cnt k) else None
      in
      (name, { c_stretch = { len_avg; len_max; hop_avg; hop_max }; c_power }))
    subs

let combined_stretch ?(one_hop_direct = true) ?(jobs = 1) ?beta ~base points
    subs =
  fused ~one_hop_direct ~jobs ~want_len:true ~want_hop:true ~beta ~base points
    subs

let stretch_factors ?(one_hop_direct = true) ?(jobs = 1) ~base ~sub points =
  match
    fused ~one_hop_direct ~jobs ~want_len:true ~want_hop:true ~beta:None ~base
      points
      [ ("", sub) ]
  with
  | [ (_, c) ] -> c.c_stretch
  | _ -> assert false (* fused returns one cell per requested sub *)

let power_stretch ?(one_hop_direct = true) ?(jobs = 1) ~base ~sub points ~beta
    =
  match
    fused ~one_hop_direct ~jobs ~want_len:false ~want_hop:false
      ~beta:(Some beta) ~base points
      [ ("", sub) ]
  with
  | [ (_, { c_power = Some p; _ }) ] -> p
  | _ -> assert false (* beta:(Some _) forces a power cell per sub *)

(* Per-round health probe: stretch over a handful of sampled sources
   (each against every reachable target) instead of all pairs, so a
   monitor can afford it every round.  Same CSR + pool machinery and
   the same deterministic source-order reduction as [fused]; raises
   like [fused] when the substructure disconnects a base-connected
   pair. *)
let sampled_stretch ?(one_hop_direct = true) ?(jobs = 1) ~sources ~base ~sub
    points =
  let n = Csr.node_count base in
  if Csr.node_count sub <> n then
    invalid_arg "Metrics.sampled_stretch: node count mismatch";
  let ns = Array.length sources in
  Array.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_arg "Metrics.sampled_stretch: source out of range")
    sources;
  let base_w = weighted points base in
  let sub_w = weighted points sub in
  let len_sum = Array.make ns 0. and len_mx = Array.make ns 0. in
  let len_cnt = Array.make ns 0 in
  let hop_sum = Array.make ns 0. and hop_mx = Array.make ns 0. in
  let hop_cnt = Array.make ns 0 in
  let errors = Array.make ns (-1) in
  let mk_body () =
    let heap = Heap.create ~capacity:1024 () in
    let queue = Array.make (max 1 n) 0 in
    let db_len = Array.make n infinity and ds_len = Array.make n infinity in
    let db_hop = Array.make n max_int and ds_hop = Array.make n max_int in
    let adj = Bytes.make (max 1 n) '\000' in
    fun i ->
      let s = sources.(i) in
      Csr.dijkstra_into base_w ~heap ~dist:db_len s;
      Csr.bfs_into base_w ~dist:db_hop ~queue s;
      Csr.dijkstra_into sub_w ~heap ~dist:ds_len s;
      Csr.bfs_into sub_w ~dist:ds_hop ~queue s;
      if one_hop_direct then
        Csr.iter_neighbors base_w s (fun v -> Bytes.set adj v '\001');
      let lsum = ref 0. and lmx = ref 0. and lcnt = ref 0 in
      let hsum = ref 0. and hmx = ref 0. and hcnt = ref 0 in
      let err = ref (-1) in
      for t = 0 to n - 1 do
        if t <> s then
          if one_hop_direct && Bytes.get adj t = '\001' then begin
            lsum := !lsum +. 1.;
            if !lmx < 1. then lmx := 1.;
            incr lcnt;
            hsum := !hsum +. 1.;
            if !hmx < 1. then hmx := 1.;
            incr hcnt
          end
          else if db_len.(t) <> infinity then begin
            if ds_len.(t) = infinity then begin
              if !err < 0 then err := t
            end
            else begin
              if db_len.(t) > 0. then begin
                let r = ds_len.(t) /. db_len.(t) in
                lsum := !lsum +. r;
                if r > !lmx then lmx := r;
                incr lcnt
              end;
              if db_hop.(t) > 0 then begin
                let r = float_of_int ds_hop.(t) /. float_of_int db_hop.(t) in
                hsum := !hsum +. r;
                if r > !hmx then hmx := r;
                incr hcnt
              end
            end
          end
      done;
      if one_hop_direct then
        Csr.iter_neighbors base_w s (fun v -> Bytes.set adj v '\000');
      len_sum.(i) <- !lsum;
      len_mx.(i) <- !lmx;
      len_cnt.(i) <- !lcnt;
      hop_sum.(i) <- !hsum;
      hop_mx.(i) <- !hmx;
      hop_cnt.(i) <- !hcnt;
      errors.(i) <- !err
  in
  let jobs = max 1 (min jobs (max 1 ns)) in
  Obs.span "metrics.sampled_stretch" (fun () ->
      Pool.with_pool ~jobs (fun pool -> Pool.parallel_for pool ~n:ns mk_body));
  Obs.add c_sources ns;
  Obs.add c_sssp (ns * 2 * 2);
  Array.iteri
    (fun i t ->
      if t >= 0 then
        invalid_arg
          (Printf.sprintf
             "Metrics.sampled_stretch: pair (%d, %d) connected in base but \
              not in subgraph"
             sources.(i) t))
    errors;
  let reduce sum mx cnt =
    let s = ref 0. and m = ref 0. and c = ref 0 in
    for i = 0 to ns - 1 do
      s := !s +. sum.(i);
      if mx.(i) > !m then m := mx.(i);
      c := !c + cnt.(i)
    done;
    if !c = 0 then (1., 1.) else (!s /. float_of_int !c, !m)
  in
  let len_avg, len_max = reduce len_sum len_mx len_cnt in
  let hop_avg, hop_max = reduce hop_sum hop_mx hop_cnt in
  { len_avg; len_max; hop_avg; hop_max }

let pair_stretch ~base ~sub points s t =
  let db = Csr.dijkstra (weighted points base) s in
  let ds = Csr.dijkstra (weighted points sub) s in
  let hb = Csr.bfs base s in
  let hs = Csr.bfs sub s in
  if db.(t) = infinity || ds.(t) = infinity || Float.equal db.(t) 0. then None
  else
    Some
      ( ds.(t) /. db.(t),
        float_of_int hs.(t) /. float_of_int (max 1 hb.(t)) )

let total_edge_length g points =
  Csr.fold_edges g
    (fun acc u v -> acc +. Geometry.Point.dist points.(u) points.(v))
    0.

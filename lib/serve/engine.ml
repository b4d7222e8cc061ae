module Pool = Netgraph.Pool
module Csr = Netgraph.Csr
module R = Core.Routing
module P = Geometry.Point

(* Registry handles (caller-domain only: the worker fan-out runs
   under [Obs.quiesced] and every metric below is recorded after the
   join, folding the index-slotted result arrays in index order, so
   counters and dist counts are bit-identical for any job count). *)
let c_queries = Obs.counter "serve.queries"
let c_delivered = Obs.counter "serve.delivered"
let c_batches = Obs.counter "serve.batches"
let d_hops = Obs.dist "serve.hops"
let d_stretch = Obs.dist "serve.stretch"
let g_minor = Obs.gauge "serve.minor_words_per_query"
let reasons = Array.length R.drop_reasons

(* kind x drop-reason counters, [serve.drops.<kind>.<reason>] *)
let c_drops =
  Array.init Workload.kinds (fun k ->
      Array.map
        (fun r ->
          Obs.counter
            (Printf.sprintf "serve.drops.%s.%s" (Workload.op_name k) r))
        R.drop_reasons)

(* Mergeable histograms: observed into per-slot instances inside the
   quiesced fan-out, then merged into these registry cells post-join
   in slot index order.  Bucket merge is element-wise addition, so the
   merged contents are independent of which slot served which query —
   the hop histogram is bit-identical for any job count.  The latency
   histogram's *values* are wall-clock, so only its shape is
   meaningful; check gates must exclude it from references. *)
let h_hops = Obs.histogram "serve.hops.hist"
let h_latency = Obs.histogram "serve.latency_us.hist"

type results = {
  count : int;
  hops : int array;
  stretch : float array;
  epoch : int array;
  latency_us : float array;
  batch_edge : int array;
  batch_s : float array;
  elapsed_s : float;
  minor_words : float;
  drops : int array array;
}

(* Per-slot worker state, created on a slot's first batch and reused
   for the rest of the run: this is what makes the steady-state query
   path allocation-free.  [dist]/[heap] serve the stretch queries'
   Dijkstra and are only sized when one arrives; [drops.(kind).(reason)]
   counts the slot's dropped queries. *)
type slot_state = {
  rsc : R.Scratch.t;
  heap : Netgraph.Heap.t;
  mutable dist : float array;
  drops : int array array;
  sh_hops : Obs.Histogram.t;
  sh_lat : Obs.Histogram.t;
}

let run ?(jobs = 1) ?pool ?batch ?(latency = true) ?on_batch ~store
    (w : Workload.t) =
  let count = w.Workload.count in
  let open_loop = Array.length w.Workload.arrival_us > 0 in
  let hops = Array.make (max 1 count) (-1) in
  let stretch = Array.make (max 1 count) nan in
  let epoch = Array.make (max 1 count) (-1) in
  let lat = if latency then Array.make (max 1 count) nan else [||] in
  let batch_size =
    match batch with Some b when b > 0 -> b | _ -> max 1 count
  in
  let nb = if count = 0 then 0 else ((count + batch_size - 1) / batch_size) in
  let batch_edge = Array.init (nb + 1) (fun b -> min count (b * batch_size)) in
  let batch_s = Array.make (max 1 nb) 0. in
  let run_in pool =
    Obs.span "serve.run" @@ fun () ->
    let slots = Pool.jobs pool in
    let states = Array.make slots None in
    let kinds = w.Workload.kind
    and srcs = w.Workload.src
    and dsts = w.Workload.dst
    and arrivals = w.Workload.arrival_us in
    let t_start = Obs.clock_us () in
    let m0 = Gc.minor_words () in
    for b = 0 to nb - 1 do
      (match on_batch with Some f -> f b | None -> ());
      (* the whole batch runs on the epoch pinned here: a publish
         from [on_batch] rolls the epoch only at a batch boundary,
         which keeps per-query results independent of scheduling *)
      let e = Store.pin store in
      let snap = Store.snapshot e in
      let pts = Store.points e in
      let udg = Netgraph.View.of_csr snap.Core.Shard.udg
      and pldel = Netgraph.View.of_csr snap.Core.Shard.pldel in
      let n = Store.node_count e in
      let eid = Store.id e in
      let lo = batch_edge.(b) and hi = batch_edge.(b + 1) in
      let serve_one st q =
        let t_ref =
          if open_loop then begin
            let a = t_start +. arrivals.(q) in
            while Obs.clock_us () < a do
              Domain.cpu_relax ()
            done;
            a
          end
          else if latency then Obs.clock_us ()
          else 0.
        in
        let src = srcs.(q) and dst = dsts.(q) in
        let k = kinds.(q) in
        (* greedy and compass are one-hop localized rules and need no
           planarity: they run on the UDG; gfg and stretch recover
           over the planar PLDel *)
        let h =
          if k = Workload.k_greedy then R.greedy_into st.rsc udg pts ~src ~dst
          else if k = Workload.k_compass then
            R.compass_into st.rsc udg pts ~src ~dst
          else R.hierarchical_into st.rsc snap ~udg ~pldel ~src ~dst
        in
        hops.(q) <- h;
        if h >= 0 then Obs.Histogram.observe_int st.sh_hops h
        else begin
          let row = st.drops.(k) and r = R.Scratch.drop st.rsc in
          row.(r) <- row.(r) + 1
        end;
        epoch.(q) <- eid;
        if k = Workload.k_stretch && h >= 0 then begin
          if src = dst then stretch.(q) <- 1.
          else begin
            if Array.length st.dist < n then st.dist <- Array.make n infinity;
            Csr.dijkstra_to (Store.udg_w e) ~heap:st.heap ~dist:st.dist src dst;
            let d = st.dist.(dst) in
            if d > 0. && d < infinity then begin
              let p = R.Scratch.path st.rsc
              and len = R.Scratch.path_len st.rsc in
              let acc = ref 0. in
              for i = 0 to len - 2 do
                (* [P.dist], spelled out: its float result would be
                   boxed where the call is not inlined *)
                let a = pts.(p.(i)) and b = pts.(p.(i + 1)) in
                let dx = a.P.x -. b.P.x and dy = a.P.y -. b.P.y in
                acc := !acc +. sqrt ((dx *. dx) +. (dy *. dy))
              done;
              stretch.(q) <- !acc /. d
            end
          end
        end;
        if latency then begin
          let l = Obs.clock_us () -. t_ref in
          lat.(q) <- l;
          Obs.Histogram.observe st.sh_lat l
        end
      in
      let t_b = Obs.clock_us () in
      Obs.quiesced (fun () ->
          Pool.parallel_for_slots pool ~n:(hi - lo) (fun ~slot ->
              let st =
                match states.(slot) with
                | Some st -> st
                | None ->
                  let st =
                    {
                      rsc = R.Scratch.create ~n ();
                      heap = Netgraph.Heap.create ();
                      dist = [||];
                      drops = Array.make_matrix Workload.kinds reasons 0;
                      sh_hops = Obs.Histogram.create ();
                      sh_lat = Obs.Histogram.create ();
                    }
                  in
                  states.(slot) <- Some st;
                  st
              in
              fun i -> serve_one st (lo + i)));
      batch_s.(b) <- (Obs.clock_us () -. t_b) /. 1e6;
      Obs.incr c_batches;
      Obs.Recorder.record
        (Obs.Recorder.Batch
           { batch = b; queries = hi - lo; epoch = eid;
             wall_us = batch_s.(b) *. 1e6 })
    done;
    let minor = Gc.minor_words () -. m0 in
    let elapsed = (Obs.clock_us () -. t_start) /. 1e6 in
    Obs.add c_queries count;
    let delivered = ref 0 in
    for q = 0 to count - 1 do
      if hops.(q) >= 0 then begin
        incr delivered;
        Obs.observe d_hops (float_of_int hops.(q))
      end;
      if not (Float.is_nan stretch.(q)) then Obs.observe d_stretch stretch.(q)
    done;
    Obs.add c_delivered !delivered;
    let drops = Array.make_matrix Workload.kinds reasons 0 in
    Array.iter
      (function
        | Some st ->
          Obs.merge_hist ~into:h_hops st.sh_hops;
          Obs.merge_hist ~into:h_latency st.sh_lat;
          Array.iteri
            (fun k row ->
              Array.iteri (fun r c -> drops.(k).(r) <- drops.(k).(r) + c) row)
            st.drops
        | None -> ())
      states;
    Array.iteri
      (fun k row -> Array.iteri (fun r c -> Obs.add c_drops.(k).(r) c) row)
      drops;
    if count > 0 then Obs.set_gauge g_minor (minor /. float_of_int count);
    {
      count;
      hops;
      stretch;
      epoch;
      latency_us = lat;
      batch_edge;
      batch_s;
      elapsed_s = elapsed;
      minor_words = minor;
      drops;
    }
  in
  match pool with
  | Some p -> run_in p
  | None -> Pool.with_pool ~jobs run_in

(* ---------------- aggregation ---------------- *)

type summary = {
  s_queries : int;
  s_delivered : int;
  s_qps : float;
  s_elapsed_s : float;
  s_hop_p50 : float;
  s_hop_p99 : float;
  s_lat_p50_us : float;
  s_lat_p99_us : float;
  s_lat_p999_us : float;
  s_stretch_p50 : float;
  s_stretch_max : float;
  s_minor_per_query : float;
  s_drops : (string * string * int) list;
}

let summarize (r : results) =
  let delivered = ref 0 and drops = ref [] in
  for k = Array.length r.drops - 1 downto 0 do
    for i = reasons - 1 downto 0 do
      let c = r.drops.(k).(i) in
      if c > 0 then
        drops := (Workload.op_name k, R.drop_reasons.(i), c) :: !drops
    done
  done;
  let hops =
    Array.init r.count (fun q ->
        if r.hops.(q) >= 0 then begin
          incr delivered;
          float_of_int r.hops.(q)
        end
        else nan)
  in
  let hop = Obs.quantiles hops [| 0.5; 0.99 |] in
  let str = Obs.quantiles (Array.sub r.stretch 0 r.count) [| 0.5; 1. |] in
  let lat =
    Obs.quantiles
      (Array.sub r.latency_us 0 (min r.count (Array.length r.latency_us)))
      [| 0.5; 0.99; 0.999 |]
  in
  {
    s_queries = r.count;
    s_delivered = !delivered;
    s_qps =
      (if r.elapsed_s > 0. then float_of_int r.count /. r.elapsed_s else nan);
    s_elapsed_s = r.elapsed_s;
    s_hop_p50 = hop.(0);
    s_hop_p99 = hop.(1);
    s_lat_p50_us = lat.(0);
    s_lat_p99_us = lat.(1);
    s_lat_p999_us = lat.(2);
    s_stretch_p50 = str.(0);
    s_stretch_max = str.(1);
    s_minor_per_query =
      (if r.count > 0 then r.minor_words /. float_of_int r.count else 0.);
    s_drops = !drops;
  }

let drops_line s =
  match s.s_drops with
  | [] -> "none"
  | drops ->
    String.concat ", "
      (List.map (fun (k, r, c) -> Printf.sprintf "%s/%s %d" k r c) drops)

let to_telemetry tel (r : results) =
  let nb = Array.length r.batch_edge - 1 in
  let with_lat = Array.length r.latency_us > 0 in
  for b = 0 to nb - 1 do
    let lo = r.batch_edge.(b) and hi = r.batch_edge.(b + 1) in
    let m = hi - lo in
    if m > 0 then begin
      Obs.Telemetry.record tel ~round:b "serve.qps"
        (if r.batch_s.(b) > 0. then float_of_int m /. r.batch_s.(b) else nan);
      let del = ref 0 in
      for q = lo to hi - 1 do
        if r.hops.(q) >= 0 then incr del
      done;
      Obs.Telemetry.record tel ~round:b "serve.delivered"
        (float_of_int !del /. float_of_int m);
      Obs.Telemetry.record tel ~round:b "serve.epoch"
        (float_of_int r.epoch.(lo));
      if with_lat then begin
        let p = Obs.quantiles (Array.sub r.latency_us lo m) [| 0.5; 0.99 |] in
        Obs.Telemetry.record tel ~round:b "serve.p50_us" p.(0);
        Obs.Telemetry.record tel ~round:b "serve.p99_us" p.(1)
      end
    end
  done

(* ---------------- the per-query result log ---------------- *)

type row = {
  r_q : int;
  r_op : string;
  r_src : int;
  r_dst : int;
  r_epoch : int;
  r_hops : int;  (* -1 = dropped *)
  r_stretch : float;  (* nan when absent or null *)
}

let write_jsonl fmt (w : Workload.t) r =
  for q = 0 to r.count - 1 do
    Format.fprintf fmt
      {|{"kind":"serve","q":%d,"op":%S,"src":%d,"dst":%d,"epoch":%d,"hops":%d|}
      q
      (Workload.op_name w.Workload.kind.(q))
      w.Workload.src.(q) w.Workload.dst.(q) r.epoch.(q) r.hops.(q);
    if w.Workload.kind.(q) = Workload.k_stretch then
      if Float.is_nan r.stretch.(q) then Format.fprintf fmt {|,"stretch":null|}
      else Format.fprintf fmt {|,"stretch":%.17g|} r.stretch.(q);
    Format.fprintf fmt "}@\n"
  done

let parse_fail line msg =
  failwith (Printf.sprintf "Serve.Engine.read_jsonl: %s in %S" msg line)

let index_of s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = sub then i else go (i + 1)
  in
  go 0

(* raw text of field [key], up to the next ',' or closing '}' *)
let raw_field line key =
  let pat = "\"" ^ key ^ "\":" in
  match index_of line pat with
  | -1 -> parse_fail line (Printf.sprintf "missing field %S" key)
  | i ->
    let start = i + String.length pat in
    let stop = ref start in
    let depth_done = ref false in
    while (not !depth_done) && !stop < String.length line do
      (match line.[!stop] with
      | ',' | '}' -> depth_done := true
      | _ -> incr stop);
      ()
    done;
    String.trim (String.sub line start (!stop - start))

let int_field line key =
  match int_of_string_opt (raw_field line key) with
  | Some v -> v
  | None -> parse_fail line (Printf.sprintf "bad int field %S" key)

let str_field line key =
  let v = raw_field line key in
  let n = String.length v in
  if n >= 2 && v.[0] = '"' && v.[n - 1] = '"' then String.sub v 1 (n - 2)
  else parse_fail line (Printf.sprintf "bad string field %S" key)

let read_jsonl text =
  let rows = ref [] in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" then begin
           if str_field line "kind" <> "serve" then
             parse_fail line "unexpected kind";
           let r_op = str_field line "op" in
           let r_stretch =
             if r_op <> "stretch" then nan
             else
               match raw_field line "stretch" with
               | "null" -> nan
               | v -> (
                 match float_of_string_opt v with
                 | Some f -> f
                 | None -> parse_fail line "bad stretch value")
           in
           rows :=
             {
               r_q = int_field line "q";
               r_op;
               r_src = int_field line "src";
               r_dst = int_field line "dst";
               r_epoch = int_field line "epoch";
               r_hops = int_field line "hops";
               r_stretch;
             }
             :: !rows
         end);
  List.rev !rows

(* lint: domain-local toggled between runs, read-only in parallel regions *)
let on = ref false
let enabled () = !on
let set_enabled b = on := b

(* Run [f] with the registry disabled, restoring the previous state.
   Parallel construction stages wrap their worker fan-out in this:
   the registry is not domain-safe, and instrumented inner loops
   (predicates, triangulation, grid queries) would otherwise race.
   An enclosing [span] entered before the quiesce still records its
   timing — [span] checks the switch once at entry. *)
let quiesced f =
  let was = !on in
  on := false;
  Fun.protect ~finally:(fun () -> on := was) f

(* %.17g round-trips IEEE doubles exactly *)
let g17 = Printf.sprintf "%.17g"

type counter = { c_name : string; mutable c_value : int }

type dist_cell = {
  mutable d_count : int;
  mutable d_sum : float;
  mutable d_sumsq : float;
  mutable d_min : float;
  mutable d_max : float;
}

type dist = dist_cell

type span_cell = {
  mutable s_calls : int;
  mutable s_seconds : float;
  mutable s_minor_words : float;  (* while GC sampling was armed *)
}

type gauge = { mutable g_value : float; mutable g_set : bool }

(* Exact quantiles of values held in full: one sorted copy, linear
   interpolation at rank q*(n-1). *)
let quantiles xs qs =
  let a =
    Array.of_seq (Seq.filter (fun x -> not (Float.is_nan x)) (Array.to_seq xs))
  in
  Array.sort Float.compare a;
  let n = Array.length a in
  Array.map
    (fun q ->
      if n = 0 then nan
      else begin
        let pos = Float.min 1. (Float.max 0. q) *. float_of_int (n - 1) in
        let i = int_of_float pos in
        let f = pos -. float_of_int i in
        (* [f = 0.] at the top rank, where [a.(i + 1)] does not exist *)
        if f = 0. then a.(i) else a.(i) +. (f *. (a.(i + 1) -. a.(i)))
      end)
    qs

(* Fixed-bucket mergeable histograms over one global log-2 bucket
   ladder: two merge by element-wise addition, so a merged result is
   independent of how observations were split across slots or domains
   — the property the serve engine needs to keep jobs-bit-identity.
   The ladder covers 2^-10 .. 2^30 (values at or below the first bound
   land in bucket 0; anything above the last bound lands in the
   overflow bucket), which spans both hop counts and microsecond
   latencies.  Bucketing is a binary search over exact powers of two —
   no logs, no rounding ambiguity. *)
module Histogram = struct
  let bounds = Array.init 41 (fun i -> ldexp 1. (i - 10))
  let buckets_len = Array.length bounds + 1

  (* [h_sum] lives in a one-slot floatarray so updating it is an
     unboxed store — a mutable float field in this mixed record would
     allocate a box per observation, and [observe_int] sits on the
     engine's zero-alloc per-query path. *)
  type t = {
    mutable h_count : int;
    h_sum : floatarray;
    h_buckets : int array; (* length [buckets_len]; last is +Inf *)
  }

  let create () =
    {
      h_count = 0;
      h_sum = Float.Array.make 1 0.;
      h_buckets = Array.make buckets_len 0;
    }

  (* smallest [i] with [v <= bounds.(i)]; the overflow slot otherwise
     (NaN also overflows — it compares false against every bound) *)
  let bucket_index v =
    let lo = ref 0 and hi = ref (Array.length bounds) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if v <= bounds.(mid) then hi := mid else lo := mid + 1
    done;
    !lo

  let add_sum h v =
    Float.Array.unsafe_set h.h_sum 0 (Float.Array.unsafe_get h.h_sum 0 +. v)

  let observe h v =
    h.h_count <- h.h_count + 1;
    add_sum h v;
    let i = bucket_index v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1

  (* [observe (float_of_int n)] without any float crossing a call
     boundary: [bounds.(10 + k) = 2.^k], so the bucket of a positive
     [n] is 10 plus the position of its highest set bit (rounded up),
     capped at the overflow slot. *)
  let observe_int h n =
    h.h_count <- h.h_count + 1;
    add_sum h (float_of_int n);
    let i =
      if n <= 0 then 0
      else begin
        let k = ref 0 in
        while 1 lsl !k < n && !k < 31 do incr k done;
        min (10 + !k) (buckets_len - 1)
      end
    in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1

  let count h = h.h_count
  let sum h = Float.Array.get h.h_sum 0
  let buckets h = Array.copy h.h_buckets

  let reset h =
    h.h_count <- 0;
    Float.Array.set h.h_sum 0 0.;
    Array.fill h.h_buckets 0 buckets_len 0

  let merge_into ~into src =
    into.h_count <- into.h_count + src.h_count;
    add_sum into (Float.Array.get src.h_sum 0);
    for i = 0 to buckets_len - 1 do
      into.h_buckets.(i) <- into.h_buckets.(i) + src.h_buckets.(i)
    done

  (* upper bound of the bucket holding rank ceil(q * count): an upper
     estimate, exact to within one bucket width *)
  let quantile_of ~count (buckets : int array) q =
    if count = 0 then nan
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int count))) in
      let acc = ref 0 and ans = ref infinity in
      (try
         Array.iteri
           (fun i c ->
             acc := !acc + c;
             if !acc >= rank then begin
               (ans :=
                  if i < Array.length bounds then bounds.(i) else infinity);
               raise Exit
             end)
           buckets
       with Exit -> ());
      !ans
    end

  let quantile h q = quantile_of ~count:h.h_count h.h_buckets q
end

let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
let dists : (string, dist_cell) Hashtbl.t = Hashtbl.create 16
let spans : (string, span_cell) Hashtbl.t = Hashtbl.create 16
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let hists : (string, Histogram.t) Hashtbl.t = Hashtbl.create 16

(* The single-writer scrape contract.  The registry's cells are only
   ever mutated from the main thread of the main domain (parallel
   stages quiesce their fan-out), and cell updates are word-sized
   stores, so the Export listener thread may *read* them at any time
   without tearing.  What it must not race with is registration — a
   [Hashtbl.add] can resize the table mid-fold.  Registration is rare
   (first use of a name) and snapshots are rare, so both sides take
   this mutex; the hot observation paths ([incr], [observe], ...)
   never do. *)
let registration_mutex = Mutex.create ()

let registered tbl name make =
  match Hashtbl.find_opt tbl name with
  | Some c -> c
  | None ->
    let c = make () in
    Mutex.lock registration_mutex;
    Hashtbl.add tbl name c;
    Mutex.unlock registration_mutex;
    c

(* span paths in first-entered order, reversed *)
let span_order : string list ref = ref []

(* the '/'-joined path of currently open spans *)
let span_path = ref ""

module Trace = struct
  (* lint: domain-local toggled between runs, read-only in parallel regions *)
  let on = ref false

  type payload =
    | Span_begin of string
    | Span_end of string
    | Count of { name : string; delta : int }
    | Send of {
        round : int;
        time : float;
        kind : string;
        src : int;
        dst : int;
        lam : int;
        sseq : int;
      }
    | Deliver of {
        round : int;
        time : float;
        kind : string;
        src : int;
        dst : int;
        lam : int;
        sseq : int;
        dseq : int;
      }
    | Job of { group : int; enter : bool }
    | Alert of {
        round : int;
        probe : string;
        value : float;
        limit : float;
        node : int;
      }

  type event = {
    ts : float; (* microseconds since Trace.start *)
    dom : int;
    group : int;
    task : int;
    phase : string;
    payload : payload;
  }

  let dummy =
    { ts = 0.; dom = 0; group = -1; task = -1; phase = "";
      payload = Span_begin "" }

  (* One ring buffer per domain, reached through domain-local storage so
     recording never takes a lock; the global list (mutex-protected,
     touched only at buffer creation and export) lets the exporting
     domain find everyone's events. *)
  type buf = {
    b_dom : int;
    mutable b_events : event array;
    mutable b_start : int;
    mutable b_len : int;
    mutable b_dropped : int;
    mutable b_group : int;
    mutable b_task : int;
  }

  let registry_mutex = Mutex.create ()
  let all_bufs : buf list ref = ref []
  let capacity = ref (1 lsl 16)
  let t0 = ref 0.
  let group_counter = Atomic.make 0

  let fresh_buf () =
    let b =
      { b_dom = (Domain.self () :> int);
        b_events = Array.make !capacity dummy;
        b_start = 0; b_len = 0; b_dropped = 0; b_group = -1; b_task = -1 }
    in
    Mutex.lock registry_mutex;
    all_bufs := b :: !all_bufs;
    Mutex.unlock registry_mutex;
    b

  let key = Domain.DLS.new_key fresh_buf
  let my_buf () = Domain.DLS.get key

  let start ?capacity:(cap = 1 lsl 16) () =
    Mutex.lock registry_mutex;
    capacity := cap;
    List.iter
      (fun b ->
        b.b_events <- Array.make cap dummy;
        b.b_start <- 0;
        b.b_len <- 0;
        b.b_dropped <- 0;
        b.b_group <- -1;
        b.b_task <- -1)
      !all_bufs;
    Mutex.unlock registry_mutex;
    Atomic.set group_counter 0;
    t0 := Unix.gettimeofday ();
    on := true

  let stop () = on := false

  let dropped () =
    Mutex.lock registry_mutex;
    let d = List.fold_left (fun a b -> a + b.b_dropped) 0 !all_bufs in
    Mutex.unlock registry_mutex;
    d

  let now_us () = (Unix.gettimeofday () -. !t0) *. 1e6

  let push b ev =
    let cap = Array.length b.b_events in
    if b.b_len = cap then begin
      (* full: overwrite the oldest *)
      b.b_events.(b.b_start) <- ev;
      b.b_start <- (b.b_start + 1) mod cap;
      b.b_dropped <- b.b_dropped + 1
    end
    else begin
      b.b_events.((b.b_start + b.b_len) mod cap) <- ev;
      b.b_len <- b.b_len + 1
    end

  (* The span-path phase label is only safe to read from the domain
     that owns the span stack, i.e. outside pool tasks. *)
  let current_phase b = if b.b_task >= 0 then "" else !span_path

  let record b payload =
    push b
      { ts = now_us (); dom = b.b_dom; group = b.b_group; task = b.b_task;
        phase = current_phase b; payload }

  let span_begin name = if !on then record (my_buf ()) (Span_begin name)
  let span_end name = if !on then record (my_buf ()) (Span_end name)

  let count name delta =
    if !on then begin
      let b = my_buf () in
      let coalesced =
        b.b_len > 0
        &&
        let cap = Array.length b.b_events in
        let i = (b.b_start + b.b_len - 1) mod cap in
        let last = b.b_events.(i) in
        match last.payload with
        | Count c
          when c.name = name && last.task = b.b_task
               && last.phase = current_phase b ->
          b.b_events.(i) <-
            { last with payload = Count { name; delta = c.delta + delta } };
          true
        | _ -> false
      in
      if not coalesced then record b (Count { name; delta })
    end

  let send ~round ~time ~kind ~src ~dst ~lam ~sseq =
    if !on then record (my_buf ()) (Send { round; time; kind; src; dst; lam; sseq })

  let deliver ~round ~time ~kind ~src ~dst ~lam ~sseq ~dseq =
    if !on then
      record (my_buf ()) (Deliver { round; time; kind; src; dst; lam; sseq; dseq })

  let alert ~round ~probe ~value ~limit ~node =
    if !on then record (my_buf ()) (Alert { round; probe; value; limit; node })

  let new_group () = Atomic.fetch_and_add group_counter 1

  let job_enter g =
    if !on then record (my_buf ()) (Job { group = g; enter = true })

  let job_leave g =
    if !on then record (my_buf ()) (Job { group = g; enter = false })

  let set_context ~group ~task =
    let b = my_buf () in
    b.b_group <- group;
    b.b_task <- task

  let buffer_events b =
    let cap = Array.length b.b_events in
    List.init b.b_len (fun i -> b.b_events.((b.b_start + i) mod cap))

  (* Deterministic merge: the exporting domain's stream keeps recorded
     order; every event recorded inside a pool job (group >= 0, from
     any domain including the caller's) is pulled out, stable-sorted by
     task index, and spliced back at that job's end marker.  Because a
     task runs entirely on one domain and each domain claims strictly
     increasing indices, within-task order is preserved and the merged
     (task, phase, payload) sequence is independent of worker count and
     scheduling. *)
  let events () =
    let me = (Domain.self () :> int) in
    ignore (my_buf () : buf);
    Mutex.lock registry_mutex;
    let bufs = !all_bufs in
    Mutex.unlock registry_mutex;
    let mine, others = List.partition (fun b -> b.b_dom = me) bufs in
    let grouped : (int, event list ref) Hashtbl.t = Hashtbl.create 16 in
    let add_grouped ev =
      match Hashtbl.find_opt grouped ev.group with
      | Some r -> r := ev :: !r
      | None -> Hashtbl.add grouped ev.group (ref [ ev ])
    in
    List.iter
      (fun b ->
        List.iter
          (fun ev -> if ev.group >= 0 then add_grouped ev)
          (buffer_events b))
      others;
    let main =
      List.concat_map buffer_events mine
      |> List.filter (fun ev ->
             if ev.group >= 0 then begin
               add_grouped ev;
               false
             end
             else true)
    in
    let by_task evs =
      List.stable_sort (fun a b -> compare a.task b.task) evs
    in
    let splice g =
      match Hashtbl.find_opt grouped g with
      | None -> []
      | Some r ->
        Hashtbl.remove grouped g;
        by_task (List.rev !r)
    in
    let rewrite ev =
      match ev.payload with
      | Job { enter = true; _ } -> { ev with payload = Span_begin "pool.job" }
      | Job { enter = false; _ } -> { ev with payload = Span_end "pool.job" }
      | _ -> ev
    in
    let merged =
      List.concat_map
        (fun ev ->
          match ev.payload with
          | Job { group = g; enter = false } -> splice g @ [ rewrite ev ]
          | _ -> [ rewrite ev ])
        main
    in
    (* groups whose end marker was lost to the ring: append in group order *)
    let leftovers =
      Hashtbl.fold (fun g r acc -> (g, by_task (List.rev !r)) :: acc) grouped []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.concat_map snd
    in
    merged @ leftovers

  (* Chrome trace-event format (Perfetto-loadable): one event object per
     line so {!read_chrome} can parse the exact subset back with Scanf,
     like Snapshot.of_json_lines.  [flows] pairs (send, deliver) events
     already present in [evs]; each pair becomes a flow arrow
     (ph "s"/"f") that viewers draw between the instants — read_chrome
     skips those lines so the event round-trip stays exact. *)
  let write_chrome ?(flows = []) fmt evs =
    let open Format in
    fprintf fmt "{\"traceEvents\":[";
    let totals : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let first = ref true in
    let sep () =
      if !first then begin
        first := false;
        fprintf fmt "@\n"
      end
      else fprintf fmt ",@\n"
    in
    let common ev =
      Printf.sprintf "\"ts\":%s,\"pid\":0,\"tid\":%d" (g17 ev.ts) ev.dom
    in
    let send_ev ev ~round ~time ~kind ~src ~dst ~lam ~sseq =
      fprintf fmt
        "{\"name\":%S,\"cat\":%S,\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{\"dir\":\"send\",\"round\":%d,\"time\":%s,\"src\":%d,\"dst\":%d,\"lam\":%d,\"sseq\":%d,\"group\":%d,\"task\":%d}}"
        kind ev.phase (common ev) round (g17 time) src dst lam sseq ev.group
        ev.task
    in
    let recv_ev ev ~round ~time ~kind ~src ~dst ~lam ~sseq ~dseq =
      fprintf fmt
        "{\"name\":%S,\"cat\":%S,\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{\"dir\":\"recv\",\"round\":%d,\"time\":%s,\"src\":%d,\"dst\":%d,\"lam\":%d,\"sseq\":%d,\"dseq\":%d,\"group\":%d,\"task\":%d}}"
        kind ev.phase (common ev) round (g17 time) src dst lam sseq dseq
        ev.group ev.task
    in
    let duration ev ph name =
      fprintf fmt
        "{\"name\":%S,\"cat\":%S,\"ph\":\"%s\",%s,\"args\":{\"group\":%d,\"task\":%d}}"
        name ev.phase ph (common ev) ev.group ev.task
    in
    List.iter
      (fun ev ->
        sep ();
        match ev.payload with
        | Span_begin name -> duration ev "B" name
        | Span_end name -> duration ev "E" name
        | Job { enter = true; _ } -> duration ev "B" "pool.job"
        | Job { enter = false; _ } -> duration ev "E" "pool.job"
        | Count { name; delta } ->
          let v =
            delta + Option.value ~default:0 (Hashtbl.find_opt totals name)
          in
          Hashtbl.replace totals name v;
          fprintf fmt
            "{\"name\":%S,\"cat\":%S,\"ph\":\"C\",%s,\"args\":{\"value\":%d,\"delta\":%d,\"group\":%d,\"task\":%d}}"
            name ev.phase (common ev) v delta ev.group ev.task
        | Send { round; time; kind; src; dst; lam; sseq } ->
          send_ev ev ~round ~time ~kind ~src ~dst ~lam ~sseq
        | Deliver { round; time; kind; src; dst; lam; sseq; dseq } ->
          recv_ev ev ~round ~time ~kind ~src ~dst ~lam ~sseq ~dseq
        | Alert { round; probe; value; limit; node } ->
          fprintf fmt
            "{\"name\":%S,\"cat\":%S,\"ph\":\"i\",\"s\":\"t\",%s,\"args\":{\"dir\":\"alert\",\"round\":%d,\"value\":%s,\"limit\":%s,\"node\":%d,\"group\":%d,\"task\":%d}}"
            probe ev.phase (common ev) round (g17 value) (g17 limit) node
            ev.group ev.task)
      evs;
    List.iteri
      (fun i ((s : event), (d : event)) ->
        sep ();
        fprintf fmt
          "{\"name\":\"critical-path\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":%d,\"ts\":%s,\"pid\":0,\"tid\":%d}"
          i (g17 s.ts) s.dom;
        sep ();
        fprintf fmt
          "{\"name\":\"critical-path\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\",\"id\":%d,\"ts\":%s,\"pid\":0,\"tid\":%d}"
          i (g17 d.ts) d.dom)
      flows;
    fprintf fmt "@\n]}@."

  let read_chrome s =
    let strip_comma l =
      let n = String.length l in
      if n > 0 && l.[n - 1] = ',' then String.sub l 0 (n - 1) else l
    in
    let try_duration line ph mk =
      Scanf.sscanf line
        "{\"name\":%S,\"cat\":%S,\"ph\":%S,\"ts\":%f,\"pid\":0,\"tid\":%d,\"args\":{\"group\":%d,\"task\":%d}}"
        (fun name phase ph' ts dom group task ->
          if ph' <> ph then failwith "ph";
          { ts; dom; group; task; phase; payload = mk name })
    in
    let parse line =
      let attempts =
        [ (fun () -> try_duration line "B" (fun n -> Span_begin n));
          (fun () -> try_duration line "E" (fun n -> Span_end n));
          (fun () ->
            Scanf.sscanf line
              "{\"name\":%S,\"cat\":%S,\"ph\":\"C\",\"ts\":%f,\"pid\":0,\"tid\":%d,\"args\":{\"value\":%d,\"delta\":%d,\"group\":%d,\"task\":%d}}"
              (fun name phase ts dom _value delta group task ->
                { ts; dom; group; task; phase;
                  payload = Count { name; delta } }));
          (fun () ->
            Scanf.sscanf line
              "{\"name\":%S,\"cat\":%S,\"ph\":\"i\",\"s\":\"t\",\"ts\":%f,\"pid\":0,\"tid\":%d,\"args\":{\"dir\":\"send\",\"round\":%d,\"time\":%f,\"src\":%d,\"dst\":%d,\"lam\":%d,\"sseq\":%d,\"group\":%d,\"task\":%d}}"
              (fun kind phase ts dom round time src dst lam sseq group task ->
                { ts; dom; group; task; phase;
                  payload = Send { round; time; kind; src; dst; lam; sseq } }));
          (fun () ->
            Scanf.sscanf line
              "{\"name\":%S,\"cat\":%S,\"ph\":\"i\",\"s\":\"t\",\"ts\":%f,\"pid\":0,\"tid\":%d,\"args\":{\"dir\":\"recv\",\"round\":%d,\"time\":%f,\"src\":%d,\"dst\":%d,\"lam\":%d,\"sseq\":%d,\"dseq\":%d,\"group\":%d,\"task\":%d}}"
              (fun kind phase ts dom round time src dst lam sseq dseq group
                   task ->
                { ts; dom; group; task; phase;
                  payload =
                    Deliver { round; time; kind; src; dst; lam; sseq; dseq } }));
          (fun () ->
            Scanf.sscanf line
              "{\"name\":%S,\"cat\":%S,\"ph\":\"i\",\"s\":\"t\",\"ts\":%f,\"pid\":0,\"tid\":%d,\"args\":{\"dir\":\"alert\",\"round\":%d,\"value\":%f,\"limit\":%f,\"node\":%d,\"group\":%d,\"task\":%d}}"
              (fun probe phase ts dom round value limit node group task ->
                { ts; dom; group; task; phase;
                  payload = Alert { round; probe; value; limit; node } }))
        ]
      in
      let rec go = function
        | [] -> failwith ("Obs.Trace.read_chrome: bad line: " ^ line)
        | f :: rest -> (
          try f () with
          | Scanf.Scan_failure _ | End_of_file | Failure _ -> go rest)
      in
      go attempts
    in
    let flow_prefix = "{\"name\":\"critical-path\",\"cat\":\"flow\"" in
    let is_flow l =
      String.length l >= String.length flow_prefix
      && String.sub l 0 (String.length flow_prefix) = flow_prefix
    in
    String.split_on_char '\n' s
    |> List.filter_map (fun l ->
           let l = strip_comma (String.trim l) in
           if l = "" || l = "{\"traceEvents\":[" || l = "]}" || is_flow l then
             None
           else Some (parse l))

  type profile_row = {
    p_path : string;
    p_calls : int;
    p_total : float;
    p_self : float;
  }

  (* Walk span begin/end pairs per domain; self time is total minus the
     time attributed to spans opened (on the same domain) inside.
     Unmatched ends (their begin was overwritten in the ring) are
     dropped. *)
  let profile evs =
    let rows : (string, profile_row) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let stacks : (int, (string * float * float ref) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    let stack dom =
      match Hashtbl.find_opt stacks dom with
      | Some s -> s
      | None ->
        let s = ref [] in
        Hashtbl.add stacks dom s;
        s
    in
    List.iter
      (fun ev ->
        match ev.payload with
        | Span_begin name ->
          let s = stack ev.dom in
          s := (name, ev.ts, ref 0.) :: !s
        | Span_end name -> (
          let s = stack ev.dom in
          match !s with
          | (n, t_begin, children) :: rest when n = name ->
            s := rest;
            let total_us = Float.max 0. (ev.ts -. t_begin) in
            let self_us = Float.max 0. (total_us -. !children) in
            (match rest with
            | (_, _, pc) :: _ -> pc := !pc +. total_us
            | [] -> ());
            let row =
              match Hashtbl.find_opt rows name with
              | Some r -> r
              | None ->
                order := name :: !order;
                { p_path = name; p_calls = 0; p_total = 0.; p_self = 0. }
            in
            Hashtbl.replace rows name
              { row with
                p_calls = row.p_calls + 1;
                p_total = row.p_total +. (total_us /. 1e6);
                p_self = row.p_self +. (self_us /. 1e6) }
          | _ -> ())
        | _ -> ())
      evs;
    List.rev_map (fun n -> Hashtbl.find rows n) !order

  let write_folded fmt evs =
    let semicolons p = String.map (fun c -> if c = '/' then ';' else c) p in
    profile evs
    |> List.sort (fun a b -> compare a.p_path b.p_path)
    |> List.iter (fun r ->
           Format.fprintf fmt "%s %.0f@." (semicolons r.p_path)
             (r.p_self *. 1e6))

  type audit_row = {
    a_phase : string;
    a_kind : string;
    a_sends : int;
    a_deliveries : int;
  }

  let message_audit evs =
    let tbl : (string * string, int ref * int ref) Hashtbl.t =
      Hashtbl.create 16
    in
    let phase_order = ref [] in
    let cell phase kind =
      match Hashtbl.find_opt tbl (phase, kind) with
      | Some c -> c
      | None ->
        if not (List.mem phase !phase_order) then
          phase_order := phase :: !phase_order;
        let c = (ref 0, ref 0) in
        Hashtbl.add tbl (phase, kind) c;
        c
    in
    List.iter
      (fun ev ->
        match ev.payload with
        | Send { kind; _ } -> Stdlib.incr (fst (cell ev.phase kind))
        | Deliver { kind; _ } -> Stdlib.incr (snd (cell ev.phase kind))
        | _ -> ())
      evs;
    List.rev !phase_order
    |> List.concat_map (fun phase ->
           Hashtbl.fold
             (fun (p, k) (s, d) acc ->
               if p = phase then
                 { a_phase = p; a_kind = k; a_sends = !s; a_deliveries = !d }
                 :: acc
               else acc)
             tbl []
           |> List.sort (fun a b -> compare a.a_kind b.a_kind))

  let fit_loglog_slope pts =
    let pts = List.filter (fun (x, y) -> x > 0. && y > 0.) pts in
    match pts with
    | [] | [ _ ] -> nan
    | _ ->
      let n = float_of_int (List.length pts) in
      let sx, sy, sxx, sxy =
        List.fold_left
          (fun (sx, sy, sxx, sxy) (x, y) ->
            let lx = log x and ly = log y in
            (sx +. lx, sy +. ly, sxx +. (lx *. lx), sxy +. (lx *. ly)))
          (0., 0., 0., 0.) pts
      in
      let den = (n *. sxx) -. (sx *. sx) in
      if Float.abs den < 1e-12 then nan
      else ((n *. sxy) -. (sx *. sy)) /. den
end

(* Post-run happens-before analysis over the merged trace stream.

   The stream returned by [Trace.events] is a valid topological
   linearization of the happens-before DAG: each engine records a
   Deliver after the Send it matches, and per-node order in the stream
   follows per-node program order.  One forward pass therefore suffices
   for the longest-chain dynamic program — O(E) time and space in the
   number of protocol events, with hash lookups keyed by (src, sseq).

   Matching is per span path ("phase"): every [Engine.run] gets a fresh
   [Stamp.t], so (src, sseq) pairs repeat across phases but are unique
   within one.  When a phase hosts two runs (no spans around either),
   a later Send overwrites its key and subsequent Delivers match the
   most recent preceding Send, which is the only causally-possible one
   in a sequential stream.

   Everything here depends only on (phase, payload) projections of the
   stream, which [Trace.events] guarantees to be bit-identical across
   worker counts — so causal statistics are too. *)
module Causal = struct
  type violation =
    | Orphan_deliver of {
        phase : string;
        src : int;
        dst : int;
        sseq : int;
        index : int;
      }
    | Clock_regression of {
        phase : string;
        node : int;
        lam : int;
        prev : int;
        index : int;
      }

  let pp_violation fmt = function
    | Orphan_deliver { phase; src; dst; sseq; index } ->
      Format.fprintf fmt
        "orphan deliver: event %d (phase %S) delivers (src %d, sseq %d) to \
         node %d with no matching send before it"
        index phase src sseq dst
    | Clock_regression { phase; node; lam; prev; index } ->
      Format.fprintf fmt
        "clock regression: event %d (phase %S) stamps node %d with lam %d, \
         not above the preceding %d"
        index phase node lam prev

  type step = {
    s_index : int;  (* position in the analyzed stream *)
    s_dir : [ `Send | `Deliver ];
    s_kind : string;
    s_node : int;  (* acting node: sender for sends, receiver for delivers *)
    s_round : int;
    s_time : float;
    s_depth : int;  (* longest causal chain, in message hops, ending here *)
  }

  type phase_report = {
    ph_phase : string;
    ph_events : int;
    ph_depth : int;  (* critical-path length in message hops *)
    ph_rounds : int;  (* engine rounds spanned by the critical path *)
    ph_span_time : float;  (* simulated time along the critical path *)
    ph_width : (int * int) list;  (* events per causal depth, 0..ph_depth *)
    ph_path : step list;  (* the critical path, root first *)
    ph_attribution : (int * int) list;
        (* node -> critical-path events, most-loaded first *)
  }

  type report = {
    r_phases : phase_report list;  (* first-seen stream order *)
    r_depth : int;  (* end-to-end: phases run sequentially, so depths add *)
    r_rounds : int;
    r_span_time : float;
    r_violations : violation list;  (* stream order *)
  }

  (* internal per-event record of the longest-chain DP *)
  type xev = {
    x_index : int;
    x_dir : [ `Send | `Deliver ];
    x_kind : string;
    x_node : int;
    x_round : int;
    x_time : float;
    x_lam : int;
    x_depth : int;
    x_tdepth : float;
    x_prev : int option;  (* program-order predecessor on the same node *)
    x_send : int option;  (* matching send, for delivers *)
    x_parent : int option;  (* the predecessor achieving x_depth *)
  }

  type pstate = {
    mutable p_evs : xev list;  (* reverse stream order *)
    mutable p_count : int;
    p_last : (int, xev) Hashtbl.t;  (* node -> its latest event *)
    p_clock : (int, int) Hashtbl.t;  (* node -> last lam seen *)
    p_sends : (int * int, xev) Hashtbl.t;  (* (src, sseq) -> send *)
    mutable p_best : xev option;  (* first deepest event *)
  }

  let scan evs =
    let phases : (string, pstate) Hashtbl.t = Hashtbl.create 8 in
    let order = ref [] in
    let by_index : (int, xev) Hashtbl.t = Hashtbl.create 1024 in
    let violations = ref [] in
    let state phase =
      match Hashtbl.find_opt phases phase with
      | Some s -> s
      | None ->
        let s =
          { p_evs = []; p_count = 0; p_last = Hashtbl.create 64;
            p_clock = Hashtbl.create 64; p_sends = Hashtbl.create 256;
            p_best = None }
        in
        Hashtbl.add phases phase s;
        order := phase :: !order;
        s
    in
    let clock_check st phase node lam i =
      (match Hashtbl.find_opt st.p_clock node with
      | Some prev when lam <= prev ->
        violations :=
          Clock_regression { phase; node; lam; prev; index = i } :: !violations
      | _ -> ());
      Hashtbl.replace st.p_clock node lam
    in
    let put st x =
      st.p_evs <- x :: st.p_evs;
      st.p_count <- st.p_count + 1;
      Hashtbl.replace st.p_last x.x_node x;
      Hashtbl.replace by_index x.x_index x;
      match st.p_best with
      | Some b when b.x_depth >= x.x_depth -> ()
      | _ -> st.p_best <- Some x
    in
    List.iteri
      (fun i (ev : Trace.event) ->
        let phase = ev.Trace.phase in
        match ev.Trace.payload with
        | Trace.Send { round; time; kind; src; lam; sseq; _ } ->
          let st = state phase in
          let prev = Hashtbl.find_opt st.p_last src in
          let depth, tdepth, prev_i =
            match prev with
            | Some p -> (p.x_depth, p.x_tdepth, Some p.x_index)
            | None -> (0, 0., None)
          in
          clock_check st phase src lam i;
          let x =
            { x_index = i; x_dir = `Send; x_kind = kind; x_node = src;
              x_round = round; x_time = time; x_lam = lam; x_depth = depth;
              x_tdepth = tdepth; x_prev = prev_i; x_send = None;
              x_parent = prev_i }
          in
          Hashtbl.replace st.p_sends (src, sseq) x;
          put st x
        | Trace.Deliver { round; time; kind; src; dst; lam; sseq; _ } ->
          let st = state phase in
          let prev = Hashtbl.find_opt st.p_last dst in
          let sender = Hashtbl.find_opt st.p_sends (src, sseq) in
          (match sender with
          | None ->
            violations :=
              Orphan_deliver { phase; src; dst; sseq; index = i }
              :: !violations
          | Some s ->
            (* the Lamport edge property: a deliver stamp dominates its
               send stamp even when the receiver was otherwise idle *)
            if lam <= s.x_lam then
              violations :=
                Clock_regression
                  { phase; node = dst; lam; prev = s.x_lam; index = i }
                :: !violations);
          let depth, tdepth, parent =
            match (prev, sender) with
            | None, None -> (0, 0., None)
            | Some p, None -> (p.x_depth, p.x_tdepth, Some p.x_index)
            | prev, Some s -> (
              let sd = s.x_depth + 1 in
              let stt = s.x_tdepth +. Float.max 0. (time -. s.x_time) in
              match prev with
              | Some p when p.x_depth > sd ->
                (p.x_depth, p.x_tdepth, Some p.x_index)
              | _ -> (sd, stt, Some s.x_index))
          in
          clock_check st phase dst lam i;
          put st
            { x_index = i; x_dir = `Deliver; x_kind = kind; x_node = dst;
              x_round = round; x_time = time; x_lam = lam; x_depth = depth;
              x_tdepth = tdepth;
              x_prev = Option.map (fun (p : xev) -> p.x_index) prev;
              x_send = Option.map (fun (s : xev) -> s.x_index) sender;
              x_parent = parent }
        | _ -> ())
      evs;
    (phases, List.rev !order, by_index, List.rev !violations)

  let analyze evs =
    let phases, order, by_index, violations = scan evs in
    let phase_report phase =
      let st = Hashtbl.find phases phase in
      let best = st.p_best in
      let path =
        let rec walk acc = function
          | None -> acc
          | Some i ->
            let x = Hashtbl.find by_index i in
            walk (x :: acc) x.x_parent
        in
        match best with None -> [] | Some b -> walk [] (Some b.x_index)
      in
      let steps =
        List.map
          (fun x ->
            { s_index = x.x_index; s_dir = x.x_dir; s_kind = x.x_kind;
              s_node = x.x_node; s_round = x.x_round; s_time = x.x_time;
              s_depth = x.x_depth })
          path
      in
      let rounds =
        match
          List.filter_map
            (fun x -> if x.x_round >= 0 then Some x.x_round else None)
            path
        with
        | [] -> 0
        | r :: rest ->
          let mn = List.fold_left min r rest in
          let mx = List.fold_left max r rest in
          mx - mn + 1
      in
      let width =
        let tbl : (int, int) Hashtbl.t = Hashtbl.create 64 in
        List.iter
          (fun x ->
            Hashtbl.replace tbl x.x_depth
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl x.x_depth)))
          st.p_evs;
        let maxd = match best with Some b -> b.x_depth | None -> -1 in
        List.init (maxd + 1) (fun d ->
            (d, Option.value ~default:0 (Hashtbl.find_opt tbl d)))
      in
      let attribution =
        let tbl : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
        let nodes = ref [] in
        List.iter
          (fun x ->
            match Hashtbl.find_opt tbl x.x_node with
            | Some r -> Stdlib.incr r
            | None ->
              nodes := x.x_node :: !nodes;
              Hashtbl.add tbl x.x_node (ref 1))
          path;
        List.rev_map (fun nd -> (nd, !(Hashtbl.find tbl nd))) !nodes
        |> List.sort (fun (n1, c1) (n2, c2) ->
               if c1 <> c2 then compare c2 c1 else compare n1 n2)
      in
      { ph_phase = phase; ph_events = st.p_count;
        ph_depth = (match best with Some b -> b.x_depth | None -> 0);
        ph_rounds = rounds;
        ph_span_time = (match best with Some b -> b.x_tdepth | None -> 0.);
        ph_width = width; ph_path = steps; ph_attribution = attribution }
    in
    let phase_reports = List.map phase_report order in
    { r_phases = phase_reports;
      r_depth = List.fold_left (fun a p -> a + p.ph_depth) 0 phase_reports;
      r_rounds = List.fold_left (fun a p -> a + p.ph_rounds) 0 phase_reports;
      r_span_time =
        List.fold_left (fun a p -> a +. p.ph_span_time) 0. phase_reports;
      r_violations = violations }

  (* Critical-path (send, deliver) pairs resolved back to the events
     they index, ready for [Trace.write_chrome ~flows].  A Deliver
     following a Send on the path can only have been reached over the
     message edge (program order never crosses nodes). *)
  let flows evs (r : report) =
    let arr = Array.of_list evs in
    List.concat_map
      (fun ph ->
        let rec pairs = function
          | a :: (b :: _ as rest) ->
            if a.s_dir = `Send && b.s_dir = `Deliver then
              (arr.(a.s_index), arr.(b.s_index)) :: pairs rest
            else pairs rest
          | _ -> []
        in
        pairs ph.ph_path)
      r.r_phases

  (* DOT dump of the happens-before DAG, meant for small n: solid edges
     are message (Send -> Deliver) edges, dashed edges per-node program
     order, and the critical path is red. *)
  let write_dot fmt evs =
    let phases, order, _, _ = scan evs in
    let r = analyze evs in
    let crit : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun ph ->
        let rec mark = function
          | a :: (b :: _ as rest) ->
            Hashtbl.replace crit (a.s_index, b.s_index) ();
            mark rest
          | _ -> ()
        in
        mark ph.ph_path)
      r.r_phases;
    let esc s =
      let b = Buffer.create (String.length s + 4) in
      String.iter
        (fun c ->
          match c with
          | '\\' -> Buffer.add_string b "\\\\"
          | '"' -> Buffer.add_string b "\\\""
          | '\n' -> Buffer.add_string b "\\n"
          | c -> Buffer.add_char b c)
        s;
      Buffer.contents b
    in
    Format.fprintf fmt "digraph happens_before {@\n";
    Format.fprintf fmt "  rankdir=LR;@\n  node [shape=box,fontsize=9];@\n";
    List.iteri
      (fun ci phase ->
        let st = Hashtbl.find phases phase in
        Format.fprintf fmt "  subgraph cluster_%d {@\n    label=\"%s\";@\n" ci
          (esc phase);
        List.iter
          (fun x ->
            Format.fprintf fmt "    e%d [label=\"%s %s n%d r%d d%d\"];@\n"
              x.x_index
              (match x.x_dir with `Send -> "S" | `Deliver -> "D")
              (esc x.x_kind) x.x_node x.x_round x.x_depth)
          (List.rev st.p_evs);
        Format.fprintf fmt "  }@\n")
      order;
    List.iter
      (fun phase ->
        let st = Hashtbl.find phases phase in
        List.iter
          (fun x ->
            let edge style p =
              let red =
                if Hashtbl.mem crit (p, x.x_index) then ",color=red,penwidth=2"
                else ""
              in
              Format.fprintf fmt "  e%d -> e%d [style=%s%s];@\n" p x.x_index
                style red
            in
            Option.iter (edge "dashed") x.x_prev;
            Option.iter (edge "solid") x.x_send)
          (List.rev st.p_evs))
      order;
    Format.fprintf fmt "}@."
end

let counter name = registered counters name (fun () -> { c_name = name; c_value = 0 })

let incr c =
  if !on then begin
    c.c_value <- c.c_value + 1;
    if !Trace.on then Trace.count c.c_name 1
  end

let add c n =
  if !on then begin
    c.c_value <- c.c_value + n;
    if !Trace.on then Trace.count c.c_name n
  end

let value c = c.c_value

let dist name =
  registered dists name (fun () ->
      { d_count = 0; d_sum = 0.; d_sumsq = 0.; d_min = infinity;
        d_max = neg_infinity })

let observe d v =
  if !on then begin
    d.d_count <- d.d_count + 1;
    d.d_sum <- d.d_sum +. v;
    d.d_sumsq <- d.d_sumsq +. (v *. v);
    if v < d.d_min then d.d_min <- v;
    if v > d.d_max then d.d_max <- v
  end

let gauge name =
  registered gauges name (fun () -> { g_value = nan; g_set = false })

let set_gauge g v =
  if !on then begin
    g.g_value <- v;
    g.g_set <- true
  end

let gauge_value g = g.g_value

let histogram name = registered hists name Histogram.create
let observe_hist h v = if !on then Histogram.observe h v
let merge_hist ~into src = if !on then Histogram.merge_into ~into src

(* GC sampling is its own switch, like Trace: a single load-and-branch
   at each span boundary when armed, nothing at all when not. *)
let gc_gauges = ref false
let set_gc_sampling b = gc_gauges := b

let g_gc_minor = gauge "gc.minor_words"
let g_gc_major = gauge "gc.major_words"
let g_gc_heap = gauge "gc.heap_words"
let g_gc_minor_n = gauge "gc.minor_collections"
let g_gc_major_n = gauge "gc.major_collections"
let g_gc_compact = gauge "gc.compactions"

let sample_gc () =
  let s = Gc.quick_stat () in
  set_gauge g_gc_minor s.Gc.minor_words;
  set_gauge g_gc_major s.Gc.major_words;
  set_gauge g_gc_heap (float_of_int s.Gc.heap_words);
  set_gauge g_gc_minor_n (float_of_int s.Gc.minor_collections);
  set_gauge g_gc_major_n (float_of_int s.Gc.major_collections);
  set_gauge g_gc_compact (float_of_int s.Gc.compactions)

(* The one wall clock exported to the rest of the library: D003 keeps
   raw [Unix.gettimeofday]/[Sys.time] out of every other lib, so code
   that must stamp real time (the serve engine's latency samples)
   reads it through here.  Stateless, hence safe from any domain. *)
let clock_us () = Unix.gettimeofday () *. 1e6

let span name f =
  if not !on then f ()
  else begin
    let parent = !span_path in
    let path = if parent = "" then name else parent ^ "/" ^ name in
    let cell =
      match Hashtbl.find_opt spans path with
      | Some c -> c
      | None ->
        let c = { s_calls = 0; s_seconds = 0.; s_minor_words = 0. } in
        Mutex.lock registration_mutex;
        Hashtbl.add spans path c;
        span_order := path :: !span_order;
        Mutex.unlock registration_mutex;
        c
    in
    if !Trace.on then Trace.span_begin path;
    let gc = !gc_gauges in
    if gc then sample_gc ();
    let w0 = if gc then Gc.minor_words () else 0. in
    span_path := path;
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        cell.s_calls <- cell.s_calls + 1;
        cell.s_seconds <- cell.s_seconds +. (Unix.gettimeofday () -. t0);
        span_path := parent;
        if gc then
          cell.s_minor_words <- cell.s_minor_words +. (Gc.minor_words () -. w0);
        if !gc_gauges then sample_gc ();
        if !Trace.on then Trace.span_end path)
      f
  end

let span_minor_words path =
  match Hashtbl.find_opt spans path with
  | Some c -> c.s_minor_words
  | None -> 0.

let reset () =
  Hashtbl.iter (fun _ c -> c.c_value <- 0) counters;
  Hashtbl.iter
    (fun _ d ->
      d.d_count <- 0;
      d.d_sum <- 0.;
      d.d_sumsq <- 0.;
      d.d_min <- infinity;
      d.d_max <- neg_infinity)
    dists;
  Hashtbl.iter
    (fun _ g ->
      g.g_value <- nan;
      g.g_set <- false)
    gauges;
  Hashtbl.iter (fun _ h -> Histogram.reset h) hists;
  Mutex.lock registration_mutex;
  Hashtbl.reset spans;
  span_order := [];
  Mutex.unlock registration_mutex;
  span_path := ""

(* The flight recorder: an always-on, bounded, per-domain ring of
   recent typed events.  Unlike [Trace] (armed per run, high volume,
   per-message granularity) the recorder holds only coarse milestones —
   batch summaries, epoch publishes, monitor violations, GC major
   slices — a few per second at most, so it is cheap enough to leave
   recording in production and dump on demand: [GET /debug/ring], a
   monitor violation, or SIGUSR2 (the CLI installs the handler).
   Events carry a global sequence number from one atomic counter so a
   dump merges the per-domain rings into one causal order. *)
module Recorder = struct
  type event =
    | Batch of { batch : int; queries : int; epoch : int; wall_us : float }
    | Epoch_published of { epoch : int; nodes : int }
    | Monitor_violation of {
        round : int;
        probe : string;
        value : float;
        limit : float;
        node : int;
      }
    | Gc_major of { heap_words : int; major_collections : int }
    | Note of string

  type entry = { e_seq : int; e_dom : int; e_t_us : float; e_event : event }

  let dummy = { e_seq = -1; e_dom = 0; e_t_us = 0.; e_event = Note "" }

  type buf = {
    b_dom : int;
    mutable b_entries : entry array;
    mutable b_start : int;
    mutable b_len : int;
  }

  let ring_mutex = Mutex.create ()
  let all_bufs : buf list ref = ref []
  let capacity = ref 256
  let seq = Atomic.make 0

  let fresh_buf () =
    let b =
      { b_dom = (Domain.self () :> int);
        b_entries = Array.make !capacity dummy; b_start = 0; b_len = 0 }
    in
    Mutex.lock ring_mutex;
    all_bufs := b :: !all_bufs;
    Mutex.unlock ring_mutex;
    b

  let key = Domain.DLS.new_key fresh_buf

  let set_capacity cap =
    let cap = max 1 cap in
    Mutex.lock ring_mutex;
    capacity := cap;
    List.iter
      (fun b ->
        b.b_entries <- Array.make cap dummy;
        b.b_start <- 0;
        b.b_len <- 0)
      !all_bufs;
    Mutex.unlock ring_mutex

  let clear () =
    Mutex.lock ring_mutex;
    List.iter
      (fun b ->
        Array.fill b.b_entries 0 (Array.length b.b_entries) dummy;
        b.b_start <- 0;
        b.b_len <- 0)
      !all_bufs;
    Mutex.unlock ring_mutex;
    Atomic.set seq 0

  let record ev =
    let b = Domain.DLS.get key in
    let e =
      { e_seq = Atomic.fetch_and_add seq 1; e_dom = b.b_dom;
        e_t_us = clock_us (); e_event = ev }
    in
    let cap = Array.length b.b_entries in
    if b.b_len = cap then begin
      (* full: overwrite the oldest *)
      b.b_entries.(b.b_start) <- e;
      b.b_start <- (b.b_start + 1) mod cap
    end
    else begin
      b.b_entries.((b.b_start + b.b_len) mod cap) <- e;
      b.b_len <- b.b_len + 1
    end

  let entries () =
    Mutex.lock ring_mutex;
    let bufs = !all_bufs in
    Mutex.unlock ring_mutex;
    List.concat_map
      (fun b ->
        let cap = Array.length b.b_entries in
        List.init b.b_len (fun i -> b.b_entries.((b.b_start + i) mod cap)))
      bufs
    |> List.sort (fun a b -> compare a.e_seq b.e_seq)

  let json_of_entry e =
    let common = Printf.sprintf "\"seq\":%d,\"dom\":%d,\"t_us\":%s" e.e_seq e.e_dom (g17 e.e_t_us) in
    match e.e_event with
    | Batch { batch; queries; epoch; wall_us } ->
      Printf.sprintf
        "{%s,\"kind\":\"batch\",\"batch\":%d,\"queries\":%d,\"epoch\":%d,\"wall_us\":%s}"
        common batch queries epoch (g17 wall_us)
    | Epoch_published { epoch; nodes } ->
      Printf.sprintf "{%s,\"kind\":\"epoch\",\"epoch\":%d,\"nodes\":%d}" common
        epoch nodes
    | Monitor_violation { round; probe; value; limit; node } ->
      Printf.sprintf
        "{%s,\"kind\":\"violation\",\"round\":%d,\"probe\":%S,\"value\":%s,\"limit\":%s,\"node\":%d}"
        common round probe (g17 value) (g17 limit) node
    | Gc_major { heap_words; major_collections } ->
      Printf.sprintf
        "{%s,\"kind\":\"gc_major\",\"heap_words\":%d,\"major_collections\":%d}"
        common heap_words major_collections
    | Note text -> Printf.sprintf "{%s,\"kind\":\"note\",\"text\":%S}" common text

  (* the whole ring as one JSON array, oldest first *)
  let to_json_string () =
    let b = Buffer.create 1024 in
    Buffer.add_string b "[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '\n';
        Buffer.add_string b (json_of_entry e))
      (entries ());
    Buffer.add_string b "\n]\n";
    Buffer.contents b

  let dump fmt () = Format.fprintf fmt "%s@?" (to_json_string ())

  (* GC major-slice events come from a [Gc.create_alarm] callback; the
     alarm is armed explicitly (the CLI arms it for serve/monitor runs)
     so allocation-gated benchmarks are not perturbed by default. *)
  let gc_alarm : Gc.alarm option ref = ref None

  let arm_gc_alarm () =
    match !gc_alarm with
    | Some _ -> ()
    | None ->
      gc_alarm :=
        Some
          (Gc.create_alarm (fun () ->
               let s = Gc.quick_stat () in
               record
                 (Gc_major
                    { heap_words = s.Gc.heap_words;
                      major_collections = s.Gc.major_collections })))

  let disarm_gc_alarm () =
    match !gc_alarm with
    | Some a ->
      Gc.delete_alarm a;
      gc_alarm := None
    | None -> ()
end

(* Round-clock telemetry: named probes pushed with [record], each
   keeping its whole history, so any summary of it can be exact. *)
module Telemetry = struct
  type cell = { mutable t_values : (int * float) list (* reversed *) }

  type t = {
    tbl : (string, cell) Hashtbl.t;
    mutable t_rounds : int list; (* reversed *)
  }

  let create () = { tbl = Hashtbl.create 16; t_rounds = [] }

  let note_round t round =
    match t.t_rounds with
    | r :: _ when r = round -> ()
    | _ -> t.t_rounds <- round :: t.t_rounds

  let record t ~round name v =
    note_round t round;
    match Hashtbl.find_opt t.tbl name with
    | Some c -> c.t_values <- (round, v) :: c.t_values
    | None -> Hashtbl.add t.tbl name { t_values = [ (round, v) ] }

  let rounds t = List.rev t.t_rounds

  let names t =
    List.sort String.compare
      (Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [])

  let series t name =
    match Hashtbl.find_opt t.tbl name with
    | None -> []
    | Some c -> List.rev c.t_values

  let last t name =
    match Hashtbl.find_opt t.tbl name with
    | None | Some { t_values = [] } -> None
    | Some { t_values = (_, v) :: _ } -> Some v

  (* One row per entry of [rounds t]: every probe, names sorted, with
     the first value it recorded in that round.  A table of first values
     per probe keeps this linear in the history plus the output. *)
  let rows t =
    let firsts =
      List.map
        (fun name ->
          let h = Hashtbl.create 64 in
          (* newest first: the value left for a round is its first *)
          List.iter (fun (r, v) -> Hashtbl.replace h r v)
            (Hashtbl.find t.tbl name).t_values;
          (name, h))
        (names t)
    in
    List.map
      (fun round ->
        ( round,
          List.map (fun (name, h) -> (name, Hashtbl.find_opt h round)) firsts ))
      (rounds t)

  let write_jsonl fmt t =
    List.iter
      (fun (round, cells) ->
        List.iter
          (fun (name, v) ->
            Option.iter
              (fun v ->
                Format.fprintf fmt
                  "{\"kind\":\"telemetry\",\"round\":%d,\"name\":%S,\"value\":%s}@."
                  round name (g17 v))
              v)
          cells)
      (rows t)

  let read_jsonl s =
    let parse line =
      try
        Scanf.sscanf line
          "{\"kind\":\"telemetry\",\"round\":%d,\"name\":%S,\"value\":%f}"
          (fun round name v -> (round, name, v))
      with Scanf.Scan_failure _ | End_of_file | Failure _ ->
        failwith ("Obs.Telemetry.read_jsonl: bad line: " ^ line)
    in
    String.split_on_char '\n' s
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" then None else Some (parse l))
    |> List.fold_left
         (fun acc (round, name, v) ->
           match acc with
           | (r, cells) :: rest when r = round ->
             (r, (name, v) :: cells) :: rest
           | _ -> (round, [ (name, v) ]) :: acc)
         []
    |> List.rev_map (fun (r, cells) -> (r, List.rev cells))

  let write_csv fmt t =
    Format.fprintf fmt "round%s@."
      (String.concat "" (List.map (fun n -> "," ^ n) (names t)));
    List.iter
      (fun (round, cells) ->
        Format.fprintf fmt "%d%s@." round
          (String.concat ""
             (List.map
                (function _, Some v -> "," ^ g17 v | _, None -> ",")
                cells)))
      (rows t)

  let spark_bars =
    [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
       "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

  (* Degenerate series need care: a constant or single-sample series
     has hi = lo (scale to the middle bar, never divide by the zero
     range), and an infinite sample must pin to the extreme bar rather
     than poison the scale of its finite neighbours. *)
  let sparkline vs =
    match List.filter (fun v -> not (Float.is_nan v)) vs with
    | [] -> ""
    | vs ->
      let finite = List.filter Float.is_finite vs in
      let lo = List.fold_left Float.min infinity finite in
      let hi = List.fold_left Float.max neg_infinity finite in
      let pick v =
        if Float.is_nan v then spark_bars.(3)
        else if v > hi then spark_bars.(7) (* +inf, or all-infinite series *)
        else if v < lo then spark_bars.(0) (* -inf *)
        else if hi -. lo <= 0. then spark_bars.(3)
        else
          let i =
            int_of_float (Float.round ((v -. lo) /. (hi -. lo) *. 7.))
          in
          spark_bars.(max 0 (min 7 i))
      in
      String.concat "" (List.map pick vs)
end

module Snapshot = struct
  type dist_stats = {
    count : int;
    sum : float;
    sumsq : float;
    min : float;
    max : float;
  }

  type span_stats = { path : string; calls : int; seconds : float }

  type hist_stats = { h_count : int; h_sum : float; h_buckets : int array }

  type t = {
    counters : (string * int) list;
    dists : (string * dist_stats) list;
    spans : span_stats list;
    gauges : (string * float) list;
    hists : (string * hist_stats) list;
  }

  let dist_mean d = if d.count = 0 then 0. else d.sum /. float_of_int d.count

  let dist_stddev d =
    if d.count = 0 then 0.
    else
      let n = float_of_int d.count in
      let m = d.sum /. n in
      sqrt (Float.max 0. ((d.sumsq /. n) -. (m *. m)))

  let hist_quantile (h : hist_stats) q =
    Histogram.quantile_of ~count:h.h_count h.h_buckets q

  let hist_mean (h : hist_stats) =
    if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count

  (* nonzero buckets as "index:count;index:count" — compact, exact, and
     Scanf-parsable through %S in the JSON lines *)
  let hist_buckets_string (b : int array) =
    let out = ref [] in
    Array.iteri
      (fun i c -> if c <> 0 then out := Printf.sprintf "%d:%d" i c :: !out)
      b;
    String.concat ";" (List.rev !out)

  let hist_buckets_of_string s =
    let b = Array.make Histogram.buckets_len 0 in
    if String.trim s <> "" then
      List.iter
        (fun part ->
          match String.split_on_char ':' part with
          | [ i; c ] -> b.(int_of_string i) <- int_of_string c
          | _ -> failwith ("Obs.Snapshot: bad buckets field: " ^ s))
        (String.split_on_char ';' s);
    b

  (* The capture holds the registration mutex for the duration of the
     fold: the Export listener thread snapshots through here while the
     main thread may be registering new names, and a [Hashtbl.add]
     resize must not race the fold (cell *values* are word-sized and
     single-writer, so reading them unlocked is safe). *)
  let capture () =
    Mutex.lock registration_mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock registration_mutex)
    @@ fun () ->
    {
      counters =
        List.sort compare
          (Hashtbl.fold (fun k c acc -> (k, c.c_value) :: acc) counters []);
      dists =
        List.sort compare
          (Hashtbl.fold
             (fun k d acc ->
               if d.d_count = 0 then acc
               else
                 ( k,
                   { count = d.d_count; sum = d.d_sum; sumsq = d.d_sumsq;
                     min = d.d_min; max = d.d_max } )
                 :: acc)
             dists []);
      spans =
        (* sorted by path, not execution order, so every sink and
           compare_against diff is stable across runs and --jobs; '/'
           sorts before any path character we use, so parents still
           precede their children *)
        List.rev_map
          (fun path ->
            let c = Hashtbl.find spans path in
            { path; calls = c.s_calls; seconds = c.s_seconds })
          !span_order
        |> List.sort (fun a b -> compare a.path b.path);
      gauges =
        List.sort compare
          (Hashtbl.fold
             (fun k g acc -> if g.g_set then (k, g.g_value) :: acc else acc)
             gauges []);
      hists =
        List.sort compare
          (Hashtbl.fold
             (fun k h acc ->
               if Histogram.count h = 0 then acc
               else
                 ( k,
                   { h_count = Histogram.count h; h_sum = Histogram.sum h;
                     h_buckets = Histogram.buckets h } )
                 :: acc)
             hists []);
    }

  let lines s =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "")

  let of_json_lines s =
    let parse acc line =
      try
        Scanf.sscanf line "{\"kind\":\"counter\",\"name\":%S,\"value\":%d}"
          (fun name v -> { acc with counters = (name, v) :: acc.counters })
      with Scanf.Scan_failure _ | End_of_file -> (
        try
          Scanf.sscanf line
            "{\"kind\":\"dist\",\"name\":%S,\"count\":%d,\"sum\":%g,\"sumsq\":%g,\"min\":%g,\"max\":%g}"
            (fun name count sum sumsq min max ->
              {
                acc with
                dists = (name, { count; sum; sumsq; min; max }) :: acc.dists;
              })
        with Scanf.Scan_failure _ | End_of_file -> (
          try
            Scanf.sscanf line
              "{\"kind\":\"span\",\"name\":%S,\"calls\":%d,\"seconds\":%g}"
              (fun path calls seconds ->
                { acc with spans = { path; calls; seconds } :: acc.spans })
          with Scanf.Scan_failure _ | End_of_file -> (
            try
              Scanf.sscanf line "{\"kind\":\"gauge\",\"name\":%S,\"value\":%g}"
                (fun name v -> { acc with gauges = (name, v) :: acc.gauges })
            with Scanf.Scan_failure _ | End_of_file -> (
              try
                Scanf.sscanf line
                  "{\"kind\":\"hist\",\"name\":%S,\"count\":%d,\"sum\":%g,\"buckets\":%S}"
                  (fun name count sum buckets ->
                    {
                      acc with
                      hists =
                        ( name,
                          { h_count = count; h_sum = sum;
                            h_buckets = hist_buckets_of_string buckets } )
                        :: acc.hists;
                    })
              with Scanf.Scan_failure _ | End_of_file ->
                failwith ("Obs.Snapshot.of_json_lines: bad line: " ^ line)))))
    in
    let acc =
      List.fold_left parse
        { counters = []; dists = []; spans = []; gauges = []; hists = [] }
        (lines s)
    in
    {
      counters = List.rev acc.counters;
      dists = List.rev acc.dists;
      spans = List.rev acc.spans;
      gauges = List.rev acc.gauges;
      hists = List.rev acc.hists;
    }

  let of_csv s =
    let parse acc line =
      match String.split_on_char ',' line with
      | [ "kind"; "name"; _; _; _; _; _ ] -> acc
      | [ "counter"; name; v; _; _; _; _ ] ->
        { acc with counters = (name, int_of_string v) :: acc.counters }
      | [ "dist"; name; count; sum; sumsq; min; max ] ->
        {
          acc with
          dists =
            ( name,
              { count = int_of_string count; sum = float_of_string sum;
                sumsq = float_of_string sumsq; min = float_of_string min;
                max = float_of_string max } )
            :: acc.dists;
        }
      | [ "span"; path; calls; seconds; _; _; _ ] ->
        {
          acc with
          spans =
            { path; calls = int_of_string calls;
              seconds = float_of_string seconds }
            :: acc.spans;
        }
      | [ "gauge"; name; v; _; _; _; _ ] ->
        { acc with gauges = (name, float_of_string v) :: acc.gauges }
      | [ "hist"; name; count; sum; buckets; _; _ ] ->
        {
          acc with
          hists =
            ( name,
              { h_count = int_of_string count; h_sum = float_of_string sum;
                h_buckets = hist_buckets_of_string buckets } )
            :: acc.hists;
        }
      | _ -> failwith ("Obs.Snapshot.of_csv: bad line: " ^ line)
    in
    let acc =
      List.fold_left parse
        { counters = []; dists = []; spans = []; gauges = []; hists = [] }
        (lines s)
    in
    {
      counters = List.rev acc.counters;
      dists = List.rev acc.dists;
      spans = List.rev acc.spans;
      gauges = List.rev acc.gauges;
      hists = List.rev acc.hists;
    }

  type mismatch = {
    m_kind : string;
    m_name : string;
    m_expected : float; (* nan for a counter unrecorded in the reference *)
    m_actual : float; (* nan when missing from current *)
  }

  (* Regression gate: counters and call/observation counts are
     deterministic for a fixed configuration, so they must match
     exactly; only span seconds are wall-clock noise and get the
     threshold.  A nonzero counter present in [current] but absent
     from [reference] is a mismatch too: otherwise a counter nobody
     recorded is never gated.  Other metrics absent from [reference]
     are ignored, and gauges are skipped entirely (instantaneous
     samples are not reproducible). *)
  let compare_against ~threshold ~(reference : t) (current : t) =
    let out = ref [] in
    let say m_kind m_name m_expected m_actual =
      out := { m_kind; m_name; m_expected; m_actual } :: !out
    in
    List.iter
      (fun (name, v) ->
        match List.assoc_opt name current.counters with
        | None -> if v <> 0 then say "counter" name (float_of_int v) nan
        | Some v' ->
          if v' <> v then
            say "counter" name (float_of_int v) (float_of_int v'))
      reference.counters;
    List.iter
      (fun (name, v') ->
        if v' <> 0 && not (List.mem_assoc name reference.counters) then
          say "counter" name nan (float_of_int v'))
      current.counters;
    List.iter
      (fun (name, (d : dist_stats)) ->
        match List.assoc_opt name current.dists with
        | None -> say "dist.count" name (float_of_int d.count) nan
        | Some d' ->
          if d'.count <> d.count then
            say "dist.count" name (float_of_int d.count)
              (float_of_int d'.count))
      reference.dists;
    List.iter
      (fun (r : span_stats) ->
        match
          List.find_opt (fun (c : span_stats) -> c.path = r.path) current.spans
        with
        | None -> say "span.calls" r.path (float_of_int r.calls) nan
        | Some c ->
          if c.calls <> r.calls then
            say "span.calls" r.path (float_of_int r.calls)
              (float_of_int c.calls);
          if c.seconds > r.seconds *. (1. +. threshold) then
            say "span.seconds" r.path r.seconds c.seconds)
      reference.spans;
    (* histograms are deterministic bucket-for-bucket for a fixed
       configuration (merging is commutative addition), so both the
       total and every bucket count must match exactly *)
    List.iter
      (fun (name, (h : hist_stats)) ->
        match List.assoc_opt name current.hists with
        | None -> say "hist.count" name (float_of_int h.h_count) nan
        | Some h' ->
          if h'.h_count <> h.h_count then
            say "hist.count" name (float_of_int h.h_count)
              (float_of_int h'.h_count);
          let le i =
            if i < Array.length Histogram.bounds then
              Printf.sprintf "%g" Histogram.bounds.(i)
            else "+Inf"
          in
          Array.iteri
            (fun i c ->
              let c' =
                if i < Array.length h'.h_buckets then h'.h_buckets.(i) else 0
              in
              if c' <> c then
                say "hist.bucket"
                  (Printf.sprintf "%s[le=%s]" name (le i))
                  (float_of_int c) (float_of_int c'))
            h.h_buckets)
      reference.hists;
    List.rev !out
end

type sink = Snapshot.t -> unit

let pretty fmt (s : Snapshot.t) =
  let open Format in
  if s.counters <> [] then begin
    fprintf fmt "counters:@.";
    List.iter
      (fun (name, v) -> fprintf fmt "  %-40s %12d@." name v)
      s.counters
  end;
  if s.spans <> [] then begin
    fprintf fmt "spans:%42s %12s@." "calls" "seconds";
    List.iter
      (fun { Snapshot.path; calls; seconds } ->
        let depth =
          String.fold_left (fun d c -> if c = '/' then d + 1 else d) 0 path
        in
        let leaf =
          match String.rindex_opt path '/' with
          | None -> path
          | Some i -> String.sub path (i + 1) (String.length path - i - 1)
        in
        let indent = String.make (2 + (2 * depth)) ' ' in
        fprintf fmt "%s%-*s %12d %12.6f@." indent
          (max 1 (46 - String.length indent))
          leaf calls seconds)
      s.spans
  end;
  if s.dists <> [] then begin
    fprintf fmt "dists:%41s %9s %9s %9s %9s@." "count" "avg" "stddev" "min"
      "max";
    List.iter
      (fun (name, d) ->
        fprintf fmt "  %-40s %5d %9.2f %9.2f %9.2f %9.2f@." name
          d.Snapshot.count (Snapshot.dist_mean d) (Snapshot.dist_stddev d)
          d.Snapshot.min d.Snapshot.max)
      s.dists
  end;
  if s.hists <> [] then begin
    fprintf fmt "hists:%41s %9s %9s %9s@." "count" "avg" "~p50" "~p99";
    List.iter
      (fun (name, h) ->
        fprintf fmt "  %-40s %5d %9.2f %9.3g %9.3g@." name
          h.Snapshot.h_count (Snapshot.hist_mean h)
          (Snapshot.hist_quantile h 0.5)
          (Snapshot.hist_quantile h 0.99))
      s.hists
  end;
  if s.gauges <> [] then begin
    fprintf fmt "gauges:@.";
    List.iter
      (fun (name, v) -> fprintf fmt "  %-40s %12g@." name v)
      s.gauges
  end

let json fmt (s : Snapshot.t) =
  let open Format in
  List.iter
    (fun (name, v) ->
      fprintf fmt "{\"kind\":\"counter\",\"name\":%S,\"value\":%d}@." name v)
    s.counters;
  List.iter
    (fun (name, { Snapshot.count; sum; sumsq; min; max }) ->
      fprintf fmt
        "{\"kind\":\"dist\",\"name\":%S,\"count\":%d,\"sum\":%s,\"sumsq\":%s,\"min\":%s,\"max\":%s}@."
        name count (g17 sum) (g17 sumsq) (g17 min) (g17 max))
    s.dists;
  List.iter
    (fun { Snapshot.path; calls; seconds } ->
      fprintf fmt "{\"kind\":\"span\",\"name\":%S,\"calls\":%d,\"seconds\":%s}@."
        path calls (g17 seconds))
    s.spans;
  List.iter
    (fun (name, v) ->
      fprintf fmt "{\"kind\":\"gauge\",\"name\":%S,\"value\":%s}@." name (g17 v))
    s.gauges;
  List.iter
    (fun (name, h) ->
      fprintf fmt
        "{\"kind\":\"hist\",\"name\":%S,\"count\":%d,\"sum\":%s,\"buckets\":%S}@."
        name h.Snapshot.h_count
        (g17 h.Snapshot.h_sum)
        (Snapshot.hist_buckets_string h.Snapshot.h_buckets))
    s.hists

let csv fmt (s : Snapshot.t) =
  let open Format in
  fprintf fmt "kind,name,a,b,c,d,e@.";
  List.iter
    (fun (name, v) -> fprintf fmt "counter,%s,%d,,,,@." name v)
    s.counters;
  List.iter
    (fun (name, { Snapshot.count; sum; sumsq; min; max }) ->
      fprintf fmt "dist,%s,%d,%s,%s,%s,%s@." name count (g17 sum) (g17 sumsq)
        (g17 min) (g17 max))
    s.dists;
  List.iter
    (fun { Snapshot.path; calls; seconds } ->
      fprintf fmt "span,%s,%d,%s,,,@." path calls (g17 seconds))
    s.spans;
  List.iter
    (fun (name, v) -> fprintf fmt "gauge,%s,%s,,,,@." name (g17 v))
    s.gauges;
  List.iter
    (fun (name, h) ->
      fprintf fmt "hist,%s,%d,%s,%s,,@." name h.Snapshot.h_count
        (g17 h.Snapshot.h_sum)
        (Snapshot.hist_buckets_string h.Snapshot.h_buckets))
    s.hists

let named_sink fmt = function
  | "pretty" -> Some (pretty fmt)
  | "json" -> Some (json fmt)
  | "csv" -> Some (csv fmt)
  | _ -> None

let report sink = sink (Snapshot.capture ())

(* Live exposition: a minimal single-threaded HTTP listener on stdlib
   [Unix], serving the registry in Prometheus text exposition format.
   One systhread owns the accept loop; it shares the main domain's
   runtime lock, so scraping never runs *concurrently* with the query
   path — it interleaves at safepoints, and [Snapshot.capture]'s
   registration mutex keeps the only cross-thread hazard (a Hashtbl
   resize mid-fold) out.  See the single-writer scrape contract above
   [registration_mutex]. *)
module Export = struct
  let prom_name name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      name

  let le_label i =
    if i < Array.length Histogram.bounds then g17 Histogram.bounds.(i)
    else "+Inf"

  (* Prometheus 0.0.4 text exposition escaping: label values escape
     backslash, double quote and newline; HELP text escapes backslash
     and newline.  Everything else (tabs, spaces, UTF-8 bytes) passes
     through verbatim — OCaml's %S would mangle those.  Span paths are
     where arbitrary characters reach /metrics. *)
  let prom_escape_label s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let prom_escape_help s =
    let b = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  (* counters and gauges one sample each; dists as summary _sum/_count;
     spans as two labelled families; hists with cumulative le buckets *)
  let metrics_text (s : Snapshot.t) =
    let b = Buffer.create 4096 in
    let line fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    let help n name = line "# HELP %s registry key %s\n" n (prom_escape_help name) in
    List.iter
      (fun (name, v) ->
        let n = prom_name name in
        help n name;
        line "# TYPE %s counter\n%s %d\n" n n v)
      s.Snapshot.counters;
    List.iter
      (fun (name, v) ->
        let n = prom_name name in
        help n name;
        line "# TYPE %s gauge\n%s %s\n" n n (g17 v))
      s.Snapshot.gauges;
    List.iter
      (fun (name, (d : Snapshot.dist_stats)) ->
        let n = prom_name name in
        help n name;
        line "# TYPE %s summary\n%s_sum %s\n%s_count %d\n" n n
          (g17 d.Snapshot.sum) n d.Snapshot.count)
      s.Snapshot.dists;
    if s.Snapshot.spans <> [] then begin
      line "# HELP span_calls calls per span path\n";
      line "# TYPE span_calls counter\n";
      List.iter
        (fun (sp : Snapshot.span_stats) ->
          line "span_calls{path=\"%s\"} %d\n"
            (prom_escape_label sp.Snapshot.path)
            sp.Snapshot.calls)
        s.Snapshot.spans;
      line "# HELP span_seconds cumulative seconds per span path\n";
      line "# TYPE span_seconds counter\n";
      List.iter
        (fun (sp : Snapshot.span_stats) ->
          line "span_seconds{path=\"%s\"} %s\n"
            (prom_escape_label sp.Snapshot.path)
            (g17 sp.Snapshot.seconds))
        s.Snapshot.spans
    end;
    List.iter
      (fun (name, (h : Snapshot.hist_stats)) ->
        let n = prom_name name in
        help n name;
        line "# TYPE %s histogram\n" n;
        let acc = ref 0 in
        Array.iteri
          (fun i c ->
            acc := !acc + c;
            line "%s_bucket{le=\"%s\"} %d\n" n (le_label i) !acc)
          h.Snapshot.h_buckets;
        line "%s_sum %s\n%s_count %d\n" n (g17 h.Snapshot.h_sum) n
          h.Snapshot.h_count)
      s.Snapshot.hists;
    Buffer.contents b

  (* The matching parser: [(key, value)] samples where a labelled
     sample keeps its label block in the key verbatim.  Raises on any
     line that is not a comment, a blank, or a well-formed sample — the
     scrape smokes re-parse the exposition through this. *)
  let parse_exposition text =
    let parse_sample l =
      match String.rindex_opt l ' ' with
      | None -> failwith ("Obs.Export.parse_exposition: bad line: " ^ l)
      | Some i ->
        let key = String.trim (String.sub l 0 i) in
        let v = String.sub l (i + 1) (String.length l - i - 1) in
        if key = "" then
          failwith ("Obs.Export.parse_exposition: bad line: " ^ l);
        (match float_of_string_opt v with
        | Some f -> (key, f)
        | None -> failwith ("Obs.Export.parse_exposition: bad value: " ^ l))
    in
    String.split_on_char '\n' text
    |> List.filter_map (fun l ->
           let l = String.trim l in
           if l = "" then None
           else if String.length l > 0 && l.[0] = '#' then begin
             (match String.split_on_char ' ' l with
             | "#" :: "TYPE" :: _ :: [ ty ]
               when List.mem ty
                      [ "counter"; "gauge"; "summary"; "histogram" ] ->
               ()
             | "#" :: "HELP" :: _ -> ()
             | _ ->
               failwith ("Obs.Export.parse_exposition: bad comment: " ^ l));
             None
           end
           else Some (parse_sample l))

  (* Cross-check parsed samples against an in-process snapshot: every
     deterministic value (counters, dist counts, span calls, histogram
     buckets and totals) must match exactly.  Returns human-readable
     discrepancies; [] means the scrape agrees with the registry. *)
  let check_snapshot samples (s : Snapshot.t) =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
    let sample key =
      List.fold_left
        (fun acc (k, v) -> if k = key then Some v else acc)
        None samples
    in
    let expect_int key v =
      match sample key with
      | None -> err "%s: missing from exposition" key
      | Some f ->
        if f <> float_of_int v then
          err "%s: exposition %.17g, registry %d" key f v
    in
    List.iter
      (fun (name, v) -> expect_int (prom_name name) v)
      s.Snapshot.counters;
    List.iter
      (fun (name, (d : Snapshot.dist_stats)) ->
        expect_int (prom_name name ^ "_count") d.Snapshot.count)
      s.Snapshot.dists;
    List.iter
      (fun (sp : Snapshot.span_stats) ->
        expect_int
          (Printf.sprintf "span_calls{path=\"%s\"}"
             (prom_escape_label sp.Snapshot.path))
          sp.Snapshot.calls)
      s.Snapshot.spans;
    List.iter
      (fun (name, (h : Snapshot.hist_stats)) ->
        let n = prom_name name in
        expect_int (n ^ "_count") h.Snapshot.h_count;
        let acc = ref 0 in
        Array.iteri
          (fun i c ->
            acc := !acc + c;
            expect_int
              (Printf.sprintf "%s_bucket{le=\"%s\"}" n (le_label i))
              !acc)
          h.Snapshot.h_buckets)
      s.Snapshot.hists;
    List.rev !errs

  (* ---------------- the listener ---------------- *)

  type handle = {
    h_fd : Unix.file_descr;
    h_port : int;
    mutable h_thread : Thread.t option;
    h_stop : bool Atomic.t;
    h_scrapes : int Atomic.t;
  }

  let port h = h.h_port
  let scrape_count h = Atomic.get h.h_scrapes

  let read_request fd =
    let buf = Bytes.create 2048 in
    let data = Buffer.create 256 in
    let rec go () =
      let headers_done () =
        let s = Buffer.contents data in
        let rec find i =
          i + 1 < String.length s
          && ((s.[i] = '\n' && s.[i + 1] = '\n')
             || (i + 3 < String.length s
                && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
                && s.[i + 3] = '\n')
             || find (i + 1))
        in
        find 0
      in
      if Buffer.length data < 8192 && not (headers_done ()) then begin
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> ()
        | n ->
          Buffer.add_subbytes data buf 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      end
    in
    go ();
    Buffer.contents data

  let request_path req =
    match String.split_on_char '\n' req with
    | first :: _ -> (
      match String.split_on_char ' ' (String.trim first) with
      | [ "GET"; path; _ ] -> Some path
      | _ -> None)
    | [] -> None

  let write_all fd s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off < n then
        match Unix.write fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let respond fd status content_type body =
    write_all fd
      (Printf.sprintf
         "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
         status content_type (String.length body) body)

  let handle_client ~health ~routes ~scrapes fd =
    match request_path (read_request fd) with
    | None -> respond fd "400 Bad Request" "text/plain" "bad request\n"
    | Some path -> (
      match path with
      | "/metrics" ->
        Atomic.incr scrapes;
        respond fd "200 OK" "text/plain; version=0.0.4; charset=utf-8"
          (metrics_text (Snapshot.capture ()))
      | "/healthz" ->
        let ok, msg = health () in
        respond fd (if ok then "200 OK" else "503 Service Unavailable")
          "text/plain" (msg ^ "\n")
      | "/debug/ring" ->
        respond fd "200 OK" "application/json" (Recorder.to_json_string ())
      | _ -> (
        match List.assoc_opt path routes with
        | Some f -> respond fd "200 OK" "text/plain" (f ())
        | None -> respond fd "404 Not Found" "text/plain" "not found\n"))

  let start ?(health = fun () -> (true, "ok")) ?(routes = []) ~port () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 16;
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    let stop_flag = Atomic.make false in
    let scrapes = Atomic.make 0 in
    let h =
      { h_fd = fd; h_port = actual; h_thread = None; h_stop = stop_flag;
        h_scrapes = scrapes }
    in
    let rec loop () =
      match Unix.accept fd with
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if not (Atomic.get stop_flag) then loop ()
      | exception Unix.Unix_error _ -> () (* listener closed: we're done *)
      | client, _ ->
        (try
           Fun.protect
             ~finally:(fun () ->
               try Unix.close client with Unix.Unix_error _ -> ())
             (fun () ->
               if not (Atomic.get stop_flag) then
                 handle_client ~health ~routes ~scrapes client)
         with Unix.Unix_error _ -> ());
        if not (Atomic.get stop_flag) then loop ()
    in
    h.h_thread <- Some (Thread.create loop ());
    h

  (* closing the listener from another systhread does not reliably wake
     a blocked [accept]; poke it with a throwaway connection instead *)
  let stop h =
    Atomic.set h.h_stop true;
    (try
       let c = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () -> try Unix.close c with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect c
             (Unix.ADDR_INET (Unix.inet_addr_loopback, h.h_port)))
     with Unix.Unix_error _ -> ());
    (match h.h_thread with Some t -> Thread.join t | None -> ());
    try Unix.close h.h_fd with Unix.Unix_error _ -> ()

  (* blocking one-shot client, for self-scrapes and tests: returns
     (status line, body) *)
  let get ~port path =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    write_all fd
      (Printf.sprintf "GET %s HTTP/1.0\r\nConnection: close\r\n\r\n" path);
    let buf = Bytes.create 4096 in
    let data = Buffer.create 4096 in
    let rec drain () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes data buf 0 n;
        drain ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
    in
    drain ();
    let raw = Buffer.contents data in
    let body_at =
      let rec find i =
        if i + 3 >= String.length raw then String.length raw
        else if
          raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r'
          && raw.[i + 3] = '\n'
        then i + 4
        else find (i + 1)
      in
      find 0
    in
    let status =
      match String.index_opt raw '\r' with
      | Some i -> String.sub raw 0 i
      | None -> raw
    in
    (status, String.sub raw body_at (String.length raw - body_at))
end

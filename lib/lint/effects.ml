(* Per-function effect summaries propagated bottom-up over SCCs of the
   call graph, a reachability pass seeded at Netgraph.Pool callback
   sites, and the diagnostics built on both: the retargeted
   determinism/multicore rules (D001/D002/D003/M001/M002 now fire only
   on sites whose function is reachable from a parallel region, and
   each finding carries the witness call chain) and the new E-rules
   (E001 unguarded blocking I/O on a parallel chain, E002 exception
   escaping a parallel region without a handler on the chain, E003
   .mli-vs-.ml drift).  Sanctioned homes for an effect — lib/obs for
   clocks and I/O, lib/wireless/rand.ml for randomness,
   lib/netgraph/graph.ml for the sorted-iteration wrappers and the
   graph mutation API — export empty summaries, so the effect does not
   leak through the abstraction that exists to contain it. *)

module T = Tokenizer
module C = Callgraph

type kind =
  | Random
  | Clock
  | Unordered_iter
  | Mutable_global
  | Blocking_io
  | Raises
  | Graph_mut

let all_kinds =
  [ Random; Clock; Unordered_iter; Mutable_global; Blocking_io; Raises; Graph_mut ]

let bit = function
  | Random -> 1
  | Clock -> 2
  | Unordered_iter -> 4
  | Mutable_global -> 8
  | Blocking_io -> 16
  | Raises -> 32
  | Graph_mut -> 64

let all_bits = 127

let kind_name = function
  | Random -> "Random"
  | Clock -> "Clock"
  | Unordered_iter -> "Unordered_iter"
  | Mutable_global -> "Mutable_global"
  | Blocking_io -> "Blocking_io"
  | Raises -> "Raises"
  | Graph_mut -> "Graph_mut"

let under dir path =
  let dir = dir ^ "/" in
  String.length path >= String.length dir
  && String.sub path 0 (String.length dir) = dir

(* Sanctioned homes: effects intrinsic to these files are masked and
   do not propagate to callers. *)
let mask_of_path path =
  if under "lib/obs" path || under "bench" path then all_bits
  else if path = "lib/wireless/rand.ml" then bit Random
  else if path = "lib/netgraph/graph.ml" then bit Unordered_iter lor bit Graph_mut
  else 0

type site = {
  e_def : int;
  e_kind : kind;
  e_line : int;
  e_col : int;
  e_text : string;  (* the offending token *)
  e_note : string;  (* extra context, e.g. which global is touched *)
}

type analysis = {
  graph : C.t;
  summaries : int array;  (* per def: union of transitive effect bits *)
  intrinsic : int array;  (* per def: own effect bits, pre-propagation *)
  sites : site list;
  reachable : bool array;  (* from any parallel seed *)
  bfs_parent : int array;  (* BFS tree, -1 at roots *)
  bfs_root : int array;  (* seed def id per reachable def, -1 otherwise *)
  has_guard : bool array;  (* Atomic/DLS token inside the def *)
  has_try : bool array;  (* a [try] inside the def *)
}

(* ---------- intrinsic effect sites ---------- *)

let io_last = function
  | "print_string" | "print_endline" | "print_newline" | "print_char"
  | "print_int" | "print_float" | "prerr_string" | "prerr_endline"
  | "prerr_newline" | "read_line" | "output_string" | "output_char"
  | "output_byte" | "output_bytes" | "output_value" | "input_line"
  | "really_input_string" | "open_in" | "open_in_bin" | "open_out"
  | "open_out_bin" | "close_in" | "close_out" | "flush" ->
    true
  | _ -> false

let io_head (t : T.token) =
  match T.path_components t.T.text with
  | [ _ ] -> true  (* bare Stdlib name *)
  | head :: _ -> (
    match head with
    | "Stdlib" | "Printf" | "Format" | "Out_channel" | "In_channel" -> true
    | _ -> false)
  | [] -> false

let printf_last = function
  | "printf" | "eprintf" | "fprintf" -> true
  | _ -> false

let sort_window_before = 8
let sort_window_after = 48

let contains_sub needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let graph_names = [ "Netgraph.Graph.add_edge"; "Netgraph.Graph.remove_edge" ]

let scan_sites (g : C.t) =
  let sites = ref [] in
  let ndefs = Array.length g.defs in
  let has_guard = Array.make (max ndefs 1) false in
  let has_try = Array.make (max ndefs 1) false in
  (* one Mutable_global site per (user, global) pair keeps repeated
     reads of the same ref from flooding the report *)
  let mut_seen = Hashtbl.create 16 in
  Array.iteri
    (fun ui (u : C.unit_info) ->
      let mask = mask_of_path u.u_path in
      let code = u.u_code in
      let n = Array.length code in
      let emit o k (t : T.token) note =
        if bit k land mask = 0 then
          sites :=
            {
              e_def = o;
              e_kind = k;
              e_line = t.T.line;
              e_col = t.T.col;
              e_text = t.T.text;
              e_note = note;
            }
            :: !sites
      in
      Array.iteri
        (fun i (t : T.token) ->
          let o = g.owner.(ui).(i) in
          if o >= 0 && t.T.kind = T.Ident then begin
            if C.domain_safe t then has_guard.(o) <- true;
            if t.T.text = "try" then has_try.(o) <- true;
            let hits = g.resolved.(ui).(i) in
            let last = T.last_component t in
            (* Random *)
            if hits = [] && T.has_component t "Random" then emit o Random t "";
            (* Clock *)
            if
              (T.has_component t "Sys" && last = "time")
              || T.has_component t "Unix"
                 && (last = "gettimeofday" || last = "time")
            then emit o Clock t "";
            (* Unordered_iter *)
            if
              T.has_component t "Hashtbl"
              && (last = "iter" || last = "fold")
            then begin
              let sorted = ref false in
              for k = i - sort_window_before to i + sort_window_after do
                if k >= 0 && k < n then
                  let u' = code.(k) in
                  if
                    u'.T.kind = T.Ident
                    && contains_sub "sort"
                         (String.lowercase_ascii (T.last_component u'))
                  then sorted := true
              done;
              if not !sorted then emit o Unordered_iter t ""
            end;
            (* Blocking_io *)
            if
              hits = []
              && ((io_last last && io_head t)
                 || printf_last last
                 || T.has_component t "Unix"
                    && (match last with
                       | "read" | "write" | "select" | "sleep" | "sleepf"
                       | "openfile" | "system" ->
                         true
                       | _ -> false)
                 || T.has_component t "Thread"
                    && (match last with
                       | "create" | "join" | "delay" | "yield" -> true
                       | _ -> false))
            then emit o Blocking_io t "";
            (* Raises *)
            if
              hits = []
              && (t.T.text = "raise" || t.T.text = "raise_notrace"
                || t.T.text = "failwith")
            then emit o Raises t "";
            (* Mutable_global: a reference to an unguarded toplevel
               mutable binding *)
            List.iter
              (fun d ->
                let dd = g.defs.(d) in
                if dd.C.mutable_global && (not dd.C.guarded) && d <> o then
                  if not (Hashtbl.mem mut_seen (o, d)) then begin
                    Hashtbl.replace mut_seen (o, d) ();
                    emit o Mutable_global t
                      (Printf.sprintf "%s (%s:%d)" dd.C.name
                         g.units.(dd.C.unit_).C.u_path dd.C.line)
                  end)
              hits;
            (* Graph_mut *)
            if
              (hits <> []
              && List.exists (fun d -> List.mem g.defs.(d).C.name graph_names) hits)
              || (hits = []
                 && (last = "add_edge" || last = "remove_edge")
                 && (T.has_component t "Graph" || T.has_component t "G"))
            then emit o Graph_mut t ""
          end)
        code)
    g.units;
  (List.rev !sites, has_guard, has_try)

(* ---------- bottom-up propagation over SCCs (Tarjan) ---------- *)

let propagate (g : C.t) (sites : site list) =
  let n = Array.length g.defs in
  let intrinsic = Array.make (max n 1) 0 in
  List.iter (fun s -> intrinsic.(s.e_def) <- intrinsic.(s.e_def) lor bit s.e_kind) sites;
  let mask = Array.make (max n 1) 0 in
  Array.iteri
    (fun d (dd : C.def) -> mask.(d) <- mask_of_path g.units.(dd.C.unit_).C.u_path)
    g.defs;
  let succs = Array.make (max n 1) [] in
  Array.iteri
    (fun d calls ->
      succs.(d) <-
        List.sort_uniq Int.compare (List.map (fun (c, _, _) -> c) calls))
    g.calls;
  let summaries = Array.make (max n 1) 0 in
  (* iterative Tarjan; SCCs pop after every SCC they reach, so callee
     summaries are final when an SCC's union is taken *)
  let index = Array.make (max n 1) (-1) in
  let low = Array.make (max n 1) 0 in
  let on_stack = Array.make (max n 1) false in
  let stack = ref [] in
  let counter = ref 0 in
  let rec strongconnect v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          low.(v) <- min low.(v) low.(w)
        end
        else if on_stack.(w) then low.(v) <- min low.(v) index.(w))
      succs.(v);
    if low.(v) = index.(v) then begin
      (* pop the SCC rooted at v *)
      let scc = ref [] in
      let brk = ref false in
      while not !brk do
        match !stack with
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          scc := w :: !scc;
          if w = v then brk := true
        | [] -> brk := true
      done;
      let bits = ref 0 in
      List.iter
        (fun w ->
          bits := !bits lor intrinsic.(w);
          List.iter
            (fun s -> if not (List.mem s !scc) then bits := !bits lor summaries.(s))
            succs.(w))
        !scc;
      List.iter (fun w -> summaries.(w) <- !bits land lnot mask.(w)) !scc
    end
  in
  for v = 0 to n - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  (summaries, intrinsic)

(* ---------- reachability from parallel seeds ---------- *)

let reach (g : C.t) =
  let n = Array.length g.defs in
  let reachable = Array.make (max n 1) false in
  let parent = Array.make (max n 1) (-1) in
  let root = Array.make (max n 1) (-1) in
  let q = Queue.create () in
  List.iter
    (fun (d, _) ->
      if not reachable.(d) then begin
        reachable.(d) <- true;
        root.(d) <- d;
        Queue.add d q
      end)
    g.seeds;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, _, _) ->
        if not reachable.(w) then begin
          reachable.(w) <- true;
          parent.(w) <- v;
          root.(w) <- root.(v);
          Queue.add w q
        end)
      g.calls.(v)
  done;
  (reachable, parent, root)

let analyze (g : C.t) =
  let sites, has_guard, has_try = scan_sites g in
  let summaries, intrinsic = propagate g sites in
  let reachable, bfs_parent, bfs_root = reach g in
  {
    graph = g;
    summaries;
    intrinsic;
    sites;
    reachable;
    bfs_parent;
    bfs_root;
    has_guard;
    has_try;
  }

(* witness chain from the BFS seed down to [d], as def ids *)
let chain_ids a d =
  let rec up acc v = if v < 0 then acc else up (v :: acc) a.bfs_parent.(v) in
  up [] d

let chain_names a d =
  List.map (fun v -> a.graph.C.defs.(v).C.name) (chain_ids a d)

let seed_site_of a d =
  if d < 0 || not a.reachable.(d) then None
  else
    let r = a.bfs_root.(d) in
    List.assoc_opt r a.graph.C.seeds

(* ---------- diagnostics ---------- *)

type rule_info = {
  id : string;
  family : string;
  severity : Diag.severity;
  title : string;
  doc : string;
}

let rules =
  [
    {
      id = "D001";
      family = "determinism";
      severity = Diag.Error;
      title = "no Stdlib.Random on parallel paths";
      doc =
        "Stdlib.Random calls reachable from a Netgraph.Pool callback make \
         parallel runs unreproducible (the PRNG state is shared and \
         schedule-dependent).  All randomness flows from the seeded, \
         splittable Wireless.Rand; only lib/wireless/rand.ml may touch the \
         underlying generator.  Findings carry the witness call chain from \
         the Pool seed.";
    };
    {
      id = "D002";
      family = "determinism";
      severity = Diag.Error;
      title = "no order-leaking Hashtbl iteration on parallel paths";
      doc =
        "Hashtbl.iter/fold visit bindings in hash order; on a path executed \
         inside a parallel region the visit order leaks into outputs.  \
         Route through Graph.sorted_tbl_iter/fold or sort the result (a \
         *sort* within a few tokens of the call is recognised); \
         lib/netgraph/graph.ml hosts the wrappers and is exempt.";
    };
    {
      id = "D003";
      family = "determinism";
      severity = Diag.Error;
      title = "no wall clocks on parallel paths";
      doc =
        "Sys.time / Unix.gettimeofday readings on a Pool-reachable path \
         differ run to run and domain to domain.  Only lib/obs (whose \
         spans and counters are merged deterministically) and bench may \
         read wall clocks.";
    };
    {
      id = "M001";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no shared toplevel mutable state on parallel paths";
      doc =
        "A module-toplevel ref / hash table / scratch array referenced by a \
         function reachable from a Netgraph.Pool callback is shared across \
         worker domains and races silently.  Use Atomic, Domain.DLS, pass \
         state explicitly, or annotate the binding with \
         (* lint: domain-local reason *).";
    };
    {
      id = "M002";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no mutable Graph construction on parallel paths";
      doc =
        "Graph.add_edge / remove_edge reachable from a Pool callback mutate \
         the Hashtbl-backed Netgraph.Graph from worker domains.  Collect \
         edge lists and seal a Netgraph.Csr (a row filter or Csr.of_rows), \
         or G.of_edges / G.union for legacy record shapes.";
    };
    {
      id = "E001";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no unguarded blocking I/O in parallel regions";
      doc =
        "Blocking I/O (prints, channel writes, Unix reads/writes, thread \
         ops) reachable from a Pool callback serializes the region and \
         interleaves output nondeterministically, unless some function on \
         the witness chain holds an Atomic/Domain.DLS guard that makes the \
         access single-writer.";
    };
    {
      id = "E002";
      family = "multicore-safety";
      severity = Diag.Warning;
      title = "no exceptions escaping parallel regions unhandled";
      doc =
        "raise/failwith reachable from a Pool callback with no try handler \
         anywhere on the witness chain escapes the worker domain; \
         Netgraph.Pool re-raises the first failure after the join, so an \
         undocumented escape turns one bad element into a lost region.  \
         Add a handler on the chain or suppress with the contract spelled \
         out.";
    };
    {
      id = "E003";
      family = "hygiene";
      severity = Diag.Warning;
      title = "interface and implementation surfaces agree";
      doc =
        "Values exported by an .mli must exist as top-level bindings in the \
         .ml, and a top-level .ml value invisible to the .mli that nothing \
         in the project references is dead code behind the interface.  \
         Units whose surface is not structurally comparable (include, \
         functors, module types) are skipped.";
    };
  ]

let find_rule id = List.find_opt (fun r -> r.id = id) rules

let rule_of_kind = function
  | Random -> "D001"
  | Clock -> "D003"
  | Unordered_iter -> "D002"
  | Mutable_global -> "M001"
  | Graph_mut -> "M002"
  | Blocking_io -> "E001"
  | Raises -> "E002"

let severity_of_rule id =
  match find_rule id with Some r -> r.severity | None -> Diag.Error

let excerpt (u : C.unit_info) line =
  if line >= 1 && line <= Array.length u.C.u_lines then
    String.trim u.C.u_lines.(line - 1)
  else ""

let base_message (s : site) =
  match s.e_kind with
  | Random ->
    "use of " ^ s.e_text
    ^ ": Stdlib.Random is nondeterministic across runs; thread a seeded \
       Wireless.Rand through instead"
  | Clock ->
    "wall-clock call " ^ s.e_text
    ^ " on a parallel path breaks reproducibility; report timings through \
       Obs spans"
  | Unordered_iter ->
    s.e_text
    ^ " iterates in hash order, which can leak into outputs; route through \
       Graph.sorted_tbl_iter/fold or sort the result"
  | Mutable_global ->
    "reference to shared toplevel mutable state " ^ s.e_note
    ^ " from a parallel region; use Atomic / Domain.DLS or annotate the \
       binding with (* lint: domain-local reason *)"
  | Graph_mut ->
    s.e_text
    ^ " mutates a Hashtbl graph on a parallel path; collect an edge list \
       and seal it as a Netgraph.Csr (or G.of_edges / G.union)"
  | Blocking_io ->
    "blocking I/O " ^ s.e_text
    ^ " in a parallel region without an Atomic/DLS guard on the chain"
  | Raises ->
    s.e_text
    ^ " can escape the parallel region: no try handler on the witness chain"

let chain_suffix a d =
  let names = chain_names a d in
  let seed =
    match seed_site_of a d with
    | Some site ->
      Printf.sprintf " (Pool call at %s:%d)"
        a.graph.C.units.(site.C.site_unit).C.u_path site.C.site_line
    | None -> ""
  in
  Printf.sprintf "; parallel chain: %s%s" (String.concat " -> " names) seed

let reachability_findings a =
  let g = a.graph in
  let out = ref [] in
  List.iter
    (fun (s : site) ->
      let d = s.e_def in
      if d >= 0 && d < Array.length a.reachable && a.reachable.(d) then begin
        let ids = chain_ids a d in
        let guard_on_chain =
          List.exists
            (fun v -> a.has_guard.(v) || g.C.defs.(v).C.guarded)
            ids
        in
        let try_on_chain = List.exists (fun v -> a.has_try.(v)) ids in
        let skip =
          match s.e_kind with
          | Blocking_io -> guard_on_chain
          | Raises -> try_on_chain
          | _ -> false
        in
        if not skip then begin
          let rule = rule_of_kind s.e_kind in
          let u = g.C.units.(g.C.defs.(d).C.unit_) in
          out :=
            {
              Diag.rule;
              severity = severity_of_rule rule;
              file = u.C.u_path;
              line = s.e_line;
              col = s.e_col;
              message = base_message s ^ chain_suffix a d;
              excerpt = excerpt u s.e_line;
            }
            :: !out
        end
      end)
    a.sites;
  List.rev !out

(* ---------- E003: .mli drift ---------- *)

let drift_findings (g : C.t) =
  let ndefs = Array.length g.defs in
  let incoming = Array.make (max ndefs 1) 0 in
  Array.iteri
    (fun caller calls ->
      List.iter
        (fun (callee, _, _) ->
          if callee <> caller then incoming.(callee) <- incoming.(callee) + 1)
        calls)
    g.calls;
  (* textual fallback: every path component mentioned anywhere, with
     the owning def, so a use our resolver missed still counts *)
  let mentioned = Hashtbl.create 256 in
  Array.iteri
    (fun ui (u : C.unit_info) ->
      Array.iteri
        (fun i (t : T.token) ->
          if t.T.kind = T.Ident then
            List.iter
              (fun comp ->
                let o = g.owner.(ui).(i) in
                match Hashtbl.find_opt mentioned comp with
                | Some owners -> Hashtbl.replace mentioned comp (o :: owners)
                | None -> Hashtbl.replace mentioned comp [ o ])
              (T.path_components t.T.text))
        u.u_code)
    g.units;
  let out = ref [] in
  Array.iteri
    (fun _ (u : C.unit_info) ->
      if u.C.u_has_mli && (not u.C.u_mli_hazard) && not u.C.u_ml_hazard then begin
        let unit_defs =
          Array.to_list g.defs
          |> List.filter (fun (d : C.def) ->
                 g.C.units.(d.C.unit_).C.u_path = u.C.u_path
                 && d.C.kind = C.Toplevel)
        in
        let def_names = List.map (fun (d : C.def) -> d.C.name) unit_defs in
        (* exported but not implemented *)
        List.iter
          (fun (qname, mline) ->
            if not (List.mem qname def_names) then
              out :=
                {
                  Diag.rule = "E003";
                  severity = Diag.Warning;
                  file = u.C.u_path ^ "i";
                  line = mline;
                  col = 1;
                  message =
                    Printf.sprintf
                      "interface exports %s but the implementation has no \
                       matching top-level binding (renamed or removed?)"
                      qname;
                  excerpt = "";
                }
                :: !out)
          u.C.u_mli_vals;
        (* implemented, invisible to the interface, and unused *)
        let exported = List.map fst u.C.u_mli_vals in
        List.iter
          (fun (d : C.def) ->
            let b =
              match String.rindex_opt d.C.name '.' with
              | Some i ->
                String.sub d.C.name (i + 1) (String.length d.C.name - i - 1)
              | None -> d.C.name
            in
            if
              (not (List.mem d.C.name exported))
              && String.length b > 0
              && b.[0] <> '<'
              && incoming.(d.C.id) = 0
              &&
              (* no textual mention outside the def itself *)
              match Hashtbl.find_opt mentioned b with
              | Some owners -> List.for_all (fun o -> o = d.C.id) owners
              | None -> true
            then
              out :=
                {
                  Diag.rule = "E003";
                  severity = Diag.Warning;
                  file = u.C.u_path;
                  line = d.C.line;
                  col = d.C.col;
                  message =
                    Printf.sprintf
                      "top-level value %s is invisible to %si and never \
                       referenced: dead code behind the interface (export \
                       it or delete it)"
                      b u.C.u_path;
                  excerpt = excerpt u d.C.line;
                }
                :: !out)
          unit_defs
      end)
    g.units;
  List.rev !out

let findings ?only a =
  let keep id =
    match only with None -> true | Some ids -> List.mem id ids
  in
  let raw =
    List.filter (fun (d : Diag.t) -> keep d.Diag.rule)
      (reachability_findings a @ drift_findings a.graph)
  in
  (* dedup on position: over-approximate resolution can hit one site
     through several candidate defs *)
  let seen = Hashtbl.create 64 in
  let out =
    List.filter
      (fun (d : Diag.t) ->
        let key = (d.Diag.rule, d.Diag.file, d.Diag.line, d.Diag.col) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      raw
  in
  List.sort Diag.compare out

(* ---------- reports: stats, DOT, per-function summary ---------- *)

type stats = {
  s_functions : int;
  s_edges : int;  (* distinct caller -> callee pairs *)
  s_seeds : int;
  s_reachable : int;
}

let distinct_edges (g : C.t) =
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun caller calls ->
      List.iter
        (fun (callee, _, _) ->
          if callee <> caller then Hashtbl.replace tbl (caller, callee) ())
        calls)
    g.calls;
  Hashtbl.fold (fun k () acc -> k :: acc) tbl []
  |> List.sort compare

let stats a =
  {
    s_functions = Array.length a.graph.C.defs;
    s_edges = List.length (distinct_edges a.graph);
    s_seeds = List.length a.graph.C.seeds;
    s_reachable =
      Array.fold_left (fun n r -> if r then n + 1 else n) 0 a.reachable;
  }

let stats_json s =
  Printf.sprintf
    "{\"kind\":\"callgraph\",\"functions\":%d,\"edges\":%d,\"seeds\":%d,\"reachable\":%d}"
    s.s_functions s.s_edges s.s_seeds s.s_reachable

let kind_color = function
  | Random -> "#e07a7a"
  | Clock -> "#e0a85f"
  | Unordered_iter -> "#d8c95a"
  | Mutable_global -> "#b58ad6"
  | Blocking_io -> "#7ab0e0"
  | Raises -> "#b0b0b0"
  | Graph_mut -> "#72c7a8"

let node_color a d =
  let bits = a.summaries.(d) in
  let rec first = function
    | [] -> "white"
    | k :: rest -> if bits land bit k <> 0 then kind_color k else first rest
  in
  first all_kinds

(* effect-colored call graph; the parallel-reachable region sits in
   its own cluster.  Every distinct edge appears exactly once, so the
   DOT edge count matches [stats.s_edges]. *)
let to_dot a =
  let g = a.graph in
  let b = Buffer.create 4096 in
  Buffer.add_string b "digraph callgraph {\n";
  Buffer.add_string b "  rankdir=LR;\n";
  Buffer.add_string b "  node [shape=box, style=filled, fontname=\"monospace\"];\n";
  Buffer.add_string b "  subgraph cluster_parallel {\n";
  Buffer.add_string b "    label=\"parallel-reachable\";\n";
  Buffer.add_string b "    color=\"#444444\";\n";
  Array.iteri
    (fun d (dd : C.def) ->
      if a.reachable.(d) then
        Buffer.add_string b
          (Printf.sprintf "    n%d [label=\"%s\", fillcolor=\"%s\"];\n" d
             dd.C.name (node_color a d)))
    g.C.defs;
  Buffer.add_string b "  }\n";
  Array.iteri
    (fun d (dd : C.def) ->
      if not a.reachable.(d) then
        Buffer.add_string b
          (Printf.sprintf "  n%d [label=\"%s\", fillcolor=\"%s\"];\n" d
             dd.C.name (node_color a d)))
    g.C.defs;
  List.iter
    (fun (caller, callee) ->
      Buffer.add_string b (Printf.sprintf "  n%d -> n%d;\n" caller callee))
    (distinct_edges g);
  Buffer.add_string b "}\n";
  Buffer.contents b

let summary_kinds bits =
  List.filter (fun k -> bits land bit k <> 0) all_kinds

let function_summary a name =
  match C.find_def a.graph name with
  | None -> None
  | Some d ->
    let b = Buffer.create 256 in
    let u = a.graph.C.units.(d.C.unit_) in
    Buffer.add_string b
      (Printf.sprintf "%s (%s:%d)\n" d.C.name u.C.u_path d.C.line);
    let eff = summary_kinds a.summaries.(d.C.id) in
    Buffer.add_string b
      (Printf.sprintf "  effects: {%s}\n"
         (String.concat ", " (List.map kind_name eff)));
    let own = summary_kinds a.intrinsic.(d.C.id) in
    if own <> [] then
      Buffer.add_string b
        (Printf.sprintf "  intrinsic: {%s}\n"
           (String.concat ", " (List.map kind_name own)));
    if a.reachable.(d.C.id) then begin
      Buffer.add_string b "  parallel-reachable: yes\n";
      Buffer.add_string b
        (Printf.sprintf "  witness: %s"
           (String.concat " -> " (chain_names a d.C.id)));
      (match seed_site_of a d.C.id with
      | Some site ->
        Buffer.add_string b
          (Printf.sprintf " (Pool call at %s:%d)"
             a.graph.C.units.(site.C.site_unit).C.u_path site.C.site_line)
      | None -> ());
      Buffer.add_char b '\n'
    end
    else Buffer.add_string b "  parallel-reachable: no\n";
    Some (Buffer.contents b)

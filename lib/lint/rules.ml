(* The rule catalog.  Each rule is a pure function from a tokenized
   compilation unit to findings; scoping (which directories a rule
   patrols) lives with the rule so the catalog is self-describing.
   Token-level checks are deliberately conservative: a miss is cheap
   (review catches it), a false positive costs a suppression with a
   written reason — so every heuristic errs toward the patterns that
   actually appear in this repo. *)

module T = Tokenizer

type ctx = {
  path : string;  (* repo-relative, '/'-separated *)
  code : T.token array;  (* comments stripped *)
  comments : T.token list;
  lines : string array;
  has_mli : bool;
}

type rule = {
  id : string;
  family : string;
  severity : Diag.severity;
  title : string;
  doc : string;
  check : ctx -> Diag.t list;
}

(* ---------- shared helpers ---------- *)

let excerpt ctx line =
  if line >= 1 && line <= Array.length ctx.lines then
    String.trim ctx.lines.(line - 1)
  else ""

let finding ctx rule severity line col message =
  {
    Diag.rule;
    severity;
    file = ctx.path;
    line;
    col;
    message;
    excerpt = excerpt ctx line;
  }

let under dir path =
  let dir = dir ^ "/" in
  String.length path >= String.length dir
  && String.sub path 0 (String.length dir) = dir

let in_any dirs path = List.exists (fun d -> under d path) dirs

let tok ctx i =
  if i >= 0 && i < Array.length ctx.code then Some ctx.code.(i) else None

let tok_text ctx i = match tok ctx i with Some t -> t.T.text | None -> ""

let contains_sub needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let is_definition_prev ctx i =
  match tok_text ctx (i - 1) with
  | "let" | "and" | "val" | "method" | "external" -> true
  | _ -> false

(* The determinism, multicore and I/O rules patrol every library unit;
   lib/obs is the sanctioned home of clocks, shared registries and
   output, so it is exempt from all of them.  Rules that own a further
   home (rand.ml for D001, graph.ml for D002, lib/viz for E001) name it
   themselves. *)
let lib_unit path = under "lib" path && not (under "lib/obs" path)

(* ---------- D001: Stdlib.Random ---------- *)

let d001_check ctx =
  if (not (lib_unit ctx.path)) || ctx.path = "lib/wireless/rand.ml" then []
  else
    Array.to_list ctx.code
    |> List.filter_map (fun t ->
           if t.T.kind = T.Ident && T.has_component t "Random" then
             Some
               (finding ctx "D001" Diag.Error t.T.line t.T.col
                  ("use of " ^ t.T.text
                 ^ ": Stdlib.Random is nondeterministic across runs; thread \
                    a seeded Wireless.Rand through instead"))
           else None)

(* ---------- D002: Hashtbl iteration order ---------- *)

let d002_sort_window_before = 8
let d002_sort_window_after = 48

let d002_check ctx =
  if (not (lib_unit ctx.path)) || ctx.path = "lib/netgraph/graph.ml" then []
  else begin
    let out = ref [] in
    Array.iteri
      (fun i t ->
        if
          t.T.kind = T.Ident
          && T.has_component t "Hashtbl"
          && (match T.last_component t with "iter" | "fold" -> true | _ -> false)
        then begin
          (* allowed when the call visibly feeds a sort: List.sort /
             List.sort_uniq / Graph.sorted_tbl_* within a small token
             window before (sort wraps the fold) or after (fold result
             piped into a sort) *)
          let sorted = ref false in
          for k = i - d002_sort_window_before to i + d002_sort_window_after do
            match tok ctx k with
            | Some u
              when u.T.kind = T.Ident
                   && contains_sub "sort"
                        (String.lowercase_ascii (T.last_component u)) ->
              sorted := true
            | _ -> ()
          done;
          if not !sorted then
            out :=
              finding ctx "D002" Diag.Error t.T.line t.T.col
                (t.T.text
               ^ " iterates in hash order, which can leak into outputs; \
                  route through Graph.sorted_tbl_iter/fold or sort the \
                  result")
              :: !out
        end)
      ctx.code;
    List.rev !out
  end

(* ---------- D003: wall clocks outside lib/obs ---------- *)

let d003_check ctx =
  if not (lib_unit ctx.path) then []
  else
    Array.to_list ctx.code
    |> List.filter_map (fun t ->
           let hit =
             t.T.kind = T.Ident
             && ((T.has_component t "Sys" && T.last_component t = "time")
                || T.has_component t "Unix"
                   && (match T.last_component t with
                      | "gettimeofday" | "time" -> true
                      | _ -> false))
           in
           if hit then
             Some
               (finding ctx "D003" Diag.Error t.T.line t.T.col
                  ("wall-clock call " ^ t.T.text
                 ^ " outside lib/obs breaks reproducibility; report \
                    timings through Obs spans"))
           else None)

(* ---------- E001: direct I/O in library code ---------- *)

(* Stdlib channel operations, bare or qualified by one of the modules
   that re-export them.  [fprintf] is left out: the pp functions print
   to a formatter their caller passes in, which is the caller's I/O. *)
let e001_channel_op = function
  | "print_string" | "print_endline" | "print_newline" | "print_char"
  | "print_int" | "print_float" | "print_bytes" | "prerr_string"
  | "prerr_endline" | "prerr_newline" | "read_line" | "output_string"
  | "output_char" | "output_byte" | "output_bytes" | "output_value"
  | "input_line" | "input_value" | "really_input_string" | "open_in"
  | "open_in_bin" | "open_out" | "open_out_bin" | "close_in" | "close_out"
  | "flush" | "flush_all" | "printf" | "eprintf" ->
    true
  | _ -> false

let e001_std_stream = function
  | "stdout" | "stderr" | "Stdlib.stdout" | "Stdlib.stderr"
  | "Format.std_formatter" | "Format.err_formatter" ->
    true
  | _ -> false

let e001_hit ctx i t =
  let last = T.last_component t in
  match T.path_components t.T.text with
  | [ _ ] -> e001_channel_op last
  | ("In_channel" | "Out_channel") :: _
  | "Stdlib" :: ("In_channel" | "Out_channel") :: _ ->
    true
  | ("Stdlib" | "Printf" | "Format") :: _ ->
    e001_channel_op last
    || (last = "fprintf" && e001_std_stream (tok_text ctx (i + 1)))
  | "Unix" :: _ -> (
    match last with
    | "read" | "write" | "select" | "sleep" | "sleepf" | "openfile"
    | "system" ->
      true
    | _ -> false)
  | "Thread" :: _ -> (
    match last with
    | "create" | "join" | "delay" | "yield" -> true
    | _ -> false)
  | _ -> false

let e001_check ctx =
  if (not (lib_unit ctx.path)) || under "lib/viz" ctx.path then []
  else begin
    let out = ref [] in
    Array.iteri
      (fun i t ->
        if t.T.kind = T.Ident && (not (is_definition_prev ctx i))
           && e001_hit ctx i t
        then
          out :=
            finding ctx "E001" Diag.Error t.T.line t.T.col
              ("direct I/O " ^ t.T.text
             ^ " in library code; return the data, print through a \
                formatter the caller passes in, or report through Obs")
            :: !out)
      ctx.code;
    List.rev !out
  end

(* ---------- F001: polymorphic compare / min / max ---------- *)

let float_scope = [ "lib/geometry"; "lib/netgraph"; "lib/delaunay" ]

let float_flavored t =
  t.T.kind = T.Float_lit
  || (t.T.kind = T.Ident
     &&
     match t.T.text with
     | "infinity" | "neg_infinity" | "nan" | "epsilon_float" -> true
     | _ -> false)

let f001_check ctx =
  if not (in_any float_scope ctx.path) then []
  else begin
    let out = ref [] in
    Array.iteri
      (fun i t ->
        if t.T.kind = T.Ident && not (is_definition_prev ctx i) then
          match t.T.text with
          | "compare" | "Stdlib.compare" ->
            out :=
              finding ctx "F001" Diag.Error t.T.line t.T.col
                "polymorphic compare in float-bearing code; use \
                 Float.compare / Int.compare or a typed comparator"
              :: !out
          | "min" | "max" | "Stdlib.min" | "Stdlib.max" ->
            let floaty =
              (match tok ctx (i + 1) with
              | Some u -> float_flavored u
              | None -> false)
              ||
              match tok ctx (i + 2) with
              | Some u -> float_flavored u
              | None -> false
            in
            if floaty then
              out :=
                finding ctx "F001" Diag.Error t.T.line t.T.col
                  ("polymorphic " ^ t.T.text
                 ^ " applied to a float; use Float.min / Float.max")
                :: !out
          | _ -> ())
      ctx.code;
    List.rev !out
  end

(* ---------- F002: exact float-literal equality ---------- *)

let f002_binding_context ctx i =
  (* [i] indexes the '='.  Skip bindings, record fields and default
     arguments: [let x = 0.], [{ x = 0.; y = 0. }], [{ r with x = 0. }],
     [?(eps = 1e-9)]. *)
  match tok ctx (i - 1) with
  | Some p when p.T.kind = T.Ident -> (
    match tok_text ctx (i - 2) with
    | "let" | "and" | "{" | ";" | "with" | "mutable" | "?" | "~" -> true
    | "(" -> tok_text ctx (i - 3) = "?"
    | _ -> false)
  | _ -> false

let f002_check ctx =
  if
    (not (in_any float_scope ctx.path))
    || ctx.path = "lib/geometry/predicates.ml"
  then []
  else begin
    let out = ref [] in
    Array.iteri
      (fun i t ->
        if t.T.kind = T.Op && (t.T.text = "=" || t.T.text = "<>") then begin
          let lit u = u.T.kind = T.Float_lit || u.T.text = "nan" in
          let neighbor =
            (match tok ctx (i + 1) with Some u -> lit u | None -> false)
            || match tok ctx (i - 1) with Some u -> lit u | None -> false
          in
          if neighbor && not (f002_binding_context ctx i) then
            out :=
              finding ctx "F002" Diag.Error t.T.line t.T.col
                "exact float equality against a literal; use Float.equal, \
                 a sign test, or an exact predicate in \
                 Geometry.Predicates"
              :: !out
        end)
      ctx.code;
    List.rev !out
  end

(* ---------- M001: module-toplevel mutable state ---------- *)

let m001_mutable_ctor t =
  t.T.kind = T.Ident
  && (t.T.text = "ref"
     || (T.has_component t "Hashtbl" && T.last_component t = "create")
     || (T.has_component t "Array"
        &&
        match T.last_component t with
        | "make" | "create_float" | "make_matrix" -> true
        | _ -> false)
     || (T.has_component t "Bytes" && T.last_component t = "create")
     || (T.has_component t "Buffer" && T.last_component t = "create")
     || (T.has_component t "Queue" && T.last_component t = "create")
     || (T.has_component t "Stack" && T.last_component t = "create"))

let m001_domain_safe t =
  t.T.kind = T.Ident
  && (T.has_component t "Atomic" || T.has_component t "DLS"
    || T.has_component t "Mutex")

let m001_check ctx =
  if not (lib_unit ctx.path) then []
  else begin
    let annotated_lines =
      List.filter_map
        (fun c ->
          if contains_sub "lint: domain-local" c.T.text then Some c.T.line
          else None)
        ctx.comments
    in
    let n = Array.length ctx.code in
    let boundary t =
      t.T.col = 1 && t.T.kind = T.Ident
      &&
      match t.T.text with
      | "let" | "and" | "type" | "module" | "open" | "include" | "exception"
      | "external" | "class" ->
        true
      | _ -> false
    in
    let out = ref [] in
    let i = ref 0 in
    while !i < n do
      let t = ctx.code.(!i) in
      if boundary t && (t.T.text = "let" || t.T.text = "and") then begin
        (* item extent: up to the next structure-level keyword *)
        let stop = ref (!i + 1) in
        while !stop < n && not (boundary ctx.code.(!stop)) do
          incr stop
        done;
        (* [let [rec] name = rhs] — only constant bindings can pin
           shared state; anything with parameters allocates per call *)
        let j = if tok_text ctx (!i + 1) = "rec" then !i + 2 else !i + 1 in
        let is_const_binding =
          match tok ctx j with
          | Some name when name.T.kind = T.Ident -> (
            match tok_text ctx (j + 1) with "=" | ":" -> true | _ -> false)
          | _ -> false
        in
        if is_const_binding then begin
          let rhs_is_function =
            (* find the '=' then look at the first RHS token *)
            let rec eq k =
              if k >= !stop then None
              else if ctx.code.(k).T.text = "=" && ctx.code.(k).T.kind = T.Op
              then Some (k + 1)
              else eq (k + 1)
            in
            match eq (j + 1) with
            | Some k -> (
              match tok_text ctx k with "fun" | "function" -> true | _ -> false)
            | None -> true
          in
          if not rhs_is_function then begin
            let last_line = ctx.code.(!stop - 1).T.line in
            let exempt =
              List.exists
                (fun l -> l >= t.T.line - 1 && l <= last_line)
                annotated_lines
              ||
              let safe = ref false in
              for k = !i to !stop - 1 do
                if m001_domain_safe ctx.code.(k) then safe := true
              done;
              !safe
            in
            if not exempt then
              for k = !i to !stop - 1 do
                let c = ctx.code.(k) in
                if m001_mutable_ctor c then
                  out :=
                    finding ctx "M001" Diag.Error c.T.line c.T.col
                      ("module-toplevel mutable state (" ^ c.T.text
                     ^ ") is shared across Netgraph.Pool worker domains; \
                        use Atomic / Domain.DLS or annotate with (* lint: \
                        domain-local reason *)")
                    :: !out
              done
          end
        end;
        i := !stop
      end
      else incr i
    done;
    List.rev !out
  end

(* ---------- H001: every library module has an interface ---------- *)

let h001_check ctx =
  if under "lib" ctx.path && not ctx.has_mli then
    [
      finding ctx "H001" Diag.Error 1 1
        "library module without an .mli: every lib/**/*.ml commits to an \
         interface";
    ]
  else []

(* ---------- H002: Obj.magic ---------- *)

let h002_check ctx =
  Array.to_list ctx.code
  |> List.filter_map (fun t ->
         if
           t.T.kind = T.Ident
           && T.has_component t "Obj"
           && T.last_component t = "magic"
         then
           Some
             (finding ctx "H002" Diag.Error t.T.line t.T.col
                "Obj.magic defeats the type system; find a typed \
                 representation")
         else None)

(* ---------- H003: silent dead ends ---------- *)

let h003_check ctx =
  if under "test" ctx.path then []
  else begin
    let comment_lines =
      List.fold_left (fun acc c -> c.T.line :: acc) [] ctx.comments
    in
    let out = ref [] in
    Array.iteri
      (fun i t ->
        if t.T.kind = T.Ident && t.T.text = "assert"
           && tok_text ctx (i + 1) = "false"
        then begin
          if not (List.mem t.T.line comment_lines) then
            out :=
              finding ctx "H003" Diag.Warning t.T.line t.T.col
                "bare 'assert false': state why the branch is unreachable \
                 in a same-line comment, or raise a descriptive exception"
              :: !out
        end
        else if t.T.kind = T.Ident && t.T.text = "failwith" then
          match tok ctx (i + 1) with
          | Some u when u.T.kind = T.String_lit && String.trim u.T.text = ""
            ->
            out :=
              finding ctx "H003" Diag.Warning t.T.line t.T.col
                "failwith with an empty message explains nothing; say what \
                 failed"
              :: !out
          | _ -> ())
      ctx.code;
    List.rev !out
  end

(* ---------- O001: metric name literals follow the naming convention ---------- *)

let o001_registration = function
  | "counter" | "dist" | "gauge" | "histogram" -> true
  | _ -> false

let o001_valid name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_' || c = '.')
       name

let o001_check ctx =
  let out = ref [] in
  Array.iteri
    (fun i t ->
      if
        t.T.kind = T.Ident
        && T.has_component t "Obs"
        && o001_registration (T.last_component t)
      then
        (* only literal registrations are checkable; a computed name
           (Printf.sprintf ...) shows up as '(' and is skipped *)
        match tok ctx (i + 1) with
        | Some u when u.T.kind = T.String_lit ->
          if not (o001_valid u.T.text) then
            out :=
              finding ctx "O001" Diag.Error u.T.line u.T.col
                (Printf.sprintf
                   "metric name %S breaks the dotted lowercase convention \
                    ([a-z0-9_.]+); registry keys sort into reports and \
                    become /metrics sample names"
                   u.T.text)
              :: !out
        | _ -> ())
    ctx.code;
  List.rev !out

(* ---------- O002: protocol trace events only via Distsim.Stamp ---------- *)

let o002_hook = function "send" | "deliver" -> true | _ -> false

let o002_check ctx =
  (* Raw [Obs.Trace.send]/[Obs.Trace.deliver] calls outside the
     stamping helper fork the Lamport clocks and desynchronize the
     happens-before DAG.  lib/distsim hosts Stamp (the single writer)
     and lib/obs defines the hooks; tests exercising the raw hooks are
     out of scope. *)
  if not (in_any [ "lib"; "bin" ] ctx.path) then []
  else if in_any [ "lib/distsim"; "lib/obs" ] ctx.path then []
  else
    Array.to_list ctx.code
    |> List.filter_map (fun t ->
           if
             t.T.kind = T.Ident
             && T.has_component t "Trace"
             && o002_hook (T.last_component t)
           then
             Some
               (finding ctx "O002" Diag.Error t.T.line t.T.col
                  (Printf.sprintf
                     "raw %s forks the Lamport clocks; protocol Send/Deliver \
                      events must be emitted through Distsim.Stamp (the \
                      single stamping writer)"
                     t.T.text))
           else None)

(* ---------- catalog ---------- *)

let all =
  [
    {
      id = "D001";
      family = "determinism";
      severity = Diag.Error;
      title = "no Stdlib.Random in library code";
      doc =
        "Stdlib.Random makes runs unreproducible, and its shared state makes \
         a Netgraph.Pool region schedule-dependent.  All randomness flows \
         from the seeded, splittable Wireless.Rand; lib/wireless/rand.ml \
         and lib/obs are exempt.";
      check = d001_check;
    };
    {
      id = "D002";
      family = "determinism";
      severity = Diag.Error;
      title = "no order-leaking Hashtbl iteration in library code";
      doc =
        "Hashtbl.iter/fold visit bindings in hash order, which varies with \
         insertion history and hash seeds; results that reach outputs or \
         metrics must go through Graph.sorted_tbl_iter/fold or an explicit \
         sort (a *sort* within a few tokens of the call is recognised).  \
         lib/netgraph/graph.ml hosts the wrappers and is exempt, as is \
         lib/obs.";
      check = d002_check;
    };
    {
      id = "D003";
      family = "determinism";
      severity = Diag.Error;
      title = "no wall clocks in library code outside lib/obs";
      doc =
        "Sys.time and Unix.gettimeofday readings differ run to run and \
         domain to domain; only the observability layer (lib/obs), whose \
         spans are kept apart from results, may read them.  Everything \
         else reports timings through Obs spans.";
      check = d003_check;
    };
    {
      id = "E001";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no direct I/O in library code";
      doc =
        "Prints, channel open/close/read/write and Unix/Thread blocking \
         calls in lib/** serialize a Netgraph.Pool region and interleave \
         output nondeterministically.  Library code returns data, prints \
         through a formatter its caller passes in (Format.fprintf ppf), or \
         reports through Obs; lib/obs and lib/viz are the output homes.";
      check = e001_check;
    };
    {
      id = "F001";
      family = "float-robustness";
      severity = Diag.Error;
      title = "no polymorphic compare on floats";
      doc =
        "Polymorphic compare/min/max in lib/geometry, lib/netgraph and \
         lib/delaunay boxes its arguments, falls through to C, and orders \
         nan inconsistently with (<).  Use Float.compare / Int.compare or \
         a typed comparator.";
      check = f001_check;
    };
    {
      id = "F002";
      family = "float-robustness";
      severity = Diag.Error;
      title = "no exact float-literal equality";
      doc =
        "x = 0. style comparisons are exact and silently false for nan; \
         outside lib/geometry/predicates.ml (whose expansion arithmetic \
         makes zero tests exact) use Float.equal, a sign test, or an exact \
         predicate.";
      check = f002_check;
    };
    {
      id = "H001";
      family = "hygiene";
      severity = Diag.Error;
      title = "every library module has an .mli";
      doc =
        "An .mli per lib/**/*.ml keeps the dependency surface explicit and \
         lets warnings catch dead code.";
      check = h001_check;
    };
    {
      id = "H002";
      family = "hygiene";
      severity = Diag.Error;
      title = "no Obj.magic";
      doc = "Obj.magic hides type errors until runtime memory corruption.";
      check = h002_check;
    };
    {
      id = "H003";
      family = "hygiene";
      severity = Diag.Warning;
      title = "no silent dead ends";
      doc =
        "A bare 'assert false' (no same-line comment) or an empty failwith \
         message turns an impossible state into an undiagnosable crash; \
         say why the branch cannot happen.";
      check = h003_check;
    };
    {
      id = "M001";
      family = "multicore-safety";
      severity = Diag.Error;
      title = "no shared toplevel mutable state in library code";
      doc =
        "Module-toplevel refs, hash tables and scratch arrays in lib/** are \
         shared across Netgraph.Pool worker domains and race silently.  \
         Use Atomic, Domain.DLS, pass state explicitly, or annotate the \
         binding with (* lint: domain-local reason *); lib/obs is exempt.";
      check = m001_check;
    };
    {
      id = "O001";
      family = "hygiene";
      severity = Diag.Error;
      title = "metric name literals follow the dotted convention";
      doc =
        "Obs.counter/dist/gauge/histogram name literals must be nonempty \
         dotted lowercase ([a-z0-9_.]+): registry keys sort into every \
         report and become Prometheus sample names on /metrics, where a \
         typo'd or CamelCase name silently forks a new time series.";
      check = o001_check;
    };
    {
      id = "O002";
      family = "hygiene";
      severity = Diag.Error;
      title = "protocol trace events flow through Distsim.Stamp";
      doc =
        "Obs.Trace.send / Obs.Trace.deliver carry Lamport stamps that only \
         Distsim.Stamp maintains; constructing protocol events anywhere \
         else (outside lib/distsim and the lib/obs definitions) forks the \
         clocks and corrupts the happens-before DAG Obs.Causal rebuilds.";
      check = o002_check;
    };
  ]

let find id = List.find_opt (fun r -> r.id = id) all

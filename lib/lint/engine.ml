(* Ties the pieces together: walk the tree, tokenize, run the rule
   catalog, honour inline suppressions, then net the committed
   baseline off.  Directory walks and finding lists are sorted, so a
   run's output is bit-identical across machines.  Reading the files
   is the caller's: the library does no I/O (rule E001). *)

type result = {
  findings : Diag.t list;  (* unsuppressed, after the baseline *)
  grandfathered : (Diag.t * string) list;
  suppressed : int;
  files : int;
  unused_baseline : Baseline.entry list;
}

let scan_dirs = [ "lib"; "bin"; "bench"; "examples"; "test" ]

let skip_dir name =
  name = "_build" || name = "fixtures"
  || (String.length name > 0 && name.[0] = '.')

let scan_files root =
  let out = ref [] in
  let rec walk rel abs =
    match Sys.is_directory abs with
    | exception Sys_error _ -> ()
    | true ->
      let entries = Sys.readdir abs in
      Array.sort String.compare entries;
      Array.iter
        (fun name ->
          if not (skip_dir name) then
            walk (rel ^ "/" ^ name) (Filename.concat abs name))
        entries
    | false ->
      if Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
      then out := rel :: !out
  in
  List.iter
    (fun d ->
      let abs = Filename.concat root d in
      if Sys.file_exists abs then walk d abs)
    scan_dirs;
  List.rev !out

(* ---------- inline suppressions ----------

   (* lint: disable RULE reason *) silences RULE on every line the
   comment touches and the line after it; the reason is mandatory — a
   reasonless disable is inert.  (* lint: domain-local reason *) is
   consumed by M001 directly. *)

type suppression = { s_rule : string; s_first : int; s_last : int }

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter (fun w -> w <> "")

let suppressions_of_comments comments =
  List.filter_map
    (fun (c : Tokenizer.token) ->
      let text = c.Tokenizer.text in
      let marker = "lint: disable" in
      let rec find i =
        if i + String.length marker > String.length text then None
        else if String.sub text i (String.length marker) = marker then
          Some (i + String.length marker)
        else find (i + 1)
      in
      match find 0 with
      | None -> None
      | Some after -> (
        let rest = String.sub text after (String.length text - after) in
        (* drop the comment closer before splitting into words *)
        let rest =
          match String.index_opt rest '*' with
          | Some i when i + 1 < String.length rest && rest.[i + 1] = ')' ->
            String.sub rest 0 i
          | _ -> rest
        in
        match words rest with
        | rule :: (_ :: _ as _reason) ->
          let newlines =
            String.fold_left
              (fun n ch -> if ch = '\n' then n + 1 else n)
              0 text
          in
          Some
            {
              s_rule = rule;
              s_first = c.Tokenizer.line;
              s_last = c.Tokenizer.line + newlines + 1;
            }
        | _ -> None (* no reason given: the suppression is inert *))
    )
    comments

let suppressed sups (d : Diag.t) =
  List.exists
    (fun s -> s.s_rule = d.rule && d.line >= s.s_first && d.line <= s.s_last)
    sups

(* ---------- per-file lint ---------- *)

let split_lines s = Array.of_list (String.split_on_char '\n' s)

let lint_source ?(rules = Rules.all) ?(has_mli = true) ~path contents =
  let tokens = Tokenizer.tokenize contents in
  let comments =
    List.filter (fun t -> t.Tokenizer.kind = Tokenizer.Comment) tokens
  in
  let code =
    Array.of_list
      (List.filter (fun t -> t.Tokenizer.kind <> Tokenizer.Comment) tokens)
  in
  let ctx =
    { Rules.path; code; comments; lines = split_lines contents; has_mli }
  in
  let raw = List.concat_map (fun (r : Rules.rule) -> r.check ctx) rules in
  let sups = suppressions_of_comments comments in
  let kept, cut = List.partition (fun d -> not (suppressed sups d)) raw in
  (List.sort Diag.compare kept, List.length cut)

(* ---------- whole-project lint ---------- *)

let lint_project ?only files =
  let rules =
    match only with
    | None -> Rules.all
    | Some ids -> List.filter (fun (r : Rules.rule) -> List.mem r.id ids) Rules.all
  in
  let mls = List.filter (fun (p, _) -> Filename.check_suffix p ".ml") files in
  let findings, cut =
    List.fold_left
      (fun (all, cut) (path, contents) ->
        let has_mli = List.mem_assoc (path ^ "i") files in
        let found, c = lint_source ~rules ~has_mli ~path contents in
        (List.rev_append found all, cut + c))
      ([], 0) mls
  in
  (List.sort Diag.compare findings, cut, List.length mls)

(* ---------- baseline netting ---------- *)

let run ?only ?(baseline = []) files =
  let sorted, suppressed, nml = lint_project ?only files in
  let findings, grandfathered = Baseline.apply baseline sorted in
  let used = Hashtbl.create 16 in
  List.iter
    (fun ((d : Diag.t), _) ->
      let key = (d.rule, d.file) in
      match Hashtbl.find_opt used key with
      | Some r -> incr r
      | None -> Hashtbl.replace used key (ref 1))
    grandfathered;
  let unused_baseline =
    List.filter
      (fun (e : Baseline.entry) ->
        match Hashtbl.find_opt used (e.rule, e.file) with
        | Some r -> !r < e.count
        | None -> true)
      baseline
  in
  { findings; grandfathered; suppressed; files = nml; unused_baseline }

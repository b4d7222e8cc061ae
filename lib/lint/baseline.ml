(* Grandfathered findings.  One tab-separated entry per line:

     RULE <tab> FILE <tab> COUNT <tab> REASON

   matching up to COUNT findings of RULE in FILE (by position order),
   so a new finding of the same kind in the same file still fails the
   build.  Line numbers are deliberately absent: they churn with every
   edit.  '#' starts a comment, blank lines are ignored, and a reason
   is mandatory — a baseline entry is a debt note, not a mute button. *)

type entry = { rule : string; file : string; count : int; reason : string }

let parse_line ln line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then None
  else
    match String.split_on_char '\t' line with
    | rule :: file :: count :: reason ->
      let reason = String.trim (String.concat "\t" reason) in
      if reason = "" then
        failwith
          (Printf.sprintf "baseline line %d: entry without a reason" ln)
      else begin
        match int_of_string_opt (String.trim count) with
        | Some count when count > 0 ->
          Some { rule = String.trim rule; file = String.trim file; count; reason }
        | _ ->
          failwith
            (Printf.sprintf "baseline line %d: bad count %S" ln count)
      end
    | _ ->
      failwith
        (Printf.sprintf
           "baseline line %d: expected RULE<tab>FILE<tab>COUNT<tab>REASON" ln)

let of_string s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter_map (fun (i, l) -> parse_line i l)

let to_string entries =
  let b = Buffer.create 256 in
  Buffer.add_string b
    "# Lint baseline: grandfathered findings, one per line as\n\
     # RULE<tab>FILE<tab>COUNT<tab>REASON.  New findings beyond COUNT\n\
     # still fail; prefer fixing over baselining.\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Printf.sprintf "%s\t%s\t%d\t%s\n" e.rule e.file e.count e.reason))
    entries;
  Buffer.contents b

let apply entries findings =
  (* consume budgets in position order so which findings are
     grandfathered is deterministic *)
  let budget = Hashtbl.create 16 in
  List.iter
    (fun e -> Hashtbl.replace budget (e.rule, e.file) (ref e.count, e.reason))
    entries;
  let keep = ref [] and grandfathered = ref [] in
  List.iter
    (fun (d : Diag.t) ->
      match Hashtbl.find_opt budget (d.rule, d.file) with
      | Some (left, reason) when !left > 0 ->
        decr left;
        grandfathered := (d, reason) :: !grandfathered
      | _ -> keep := d :: !keep)
    (List.sort Diag.compare findings);
  (List.rev !keep, List.rev !grandfathered)

let merge_reasons ~old entries =
  List.map
    (fun e ->
      match
        List.find_opt (fun o -> o.rule = e.rule && o.file = e.file) old
      with
      | Some o when o.reason <> "" -> { e with reason = o.reason }
      | _ -> e)
    entries

let of_findings ~reason findings =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (d : Diag.t) ->
      let key = (d.rule, d.file) in
      match Hashtbl.find_opt tbl key with
      | Some r -> incr r
      | None ->
        Hashtbl.replace tbl key (ref 1);
        order := key :: !order)
    findings;
  List.rev !order
  |> List.map (fun (rule, file) ->
         { rule; file; count = !(Hashtbl.find tbl (rule, file)); reason })

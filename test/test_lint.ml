(* The lint layer: tokenizer behaviour on the constructs that usually
   break naive scanners (plus the torture cases that broke this one),
   positive and negative fixtures for every rule (each fires on a
   lib/** path outside its home and stays quiet in its home),
   suppression and baseline round-trips, and the self-lint — the repo
   must come out clean under its own analyzer. *)

let check = Alcotest.(check bool)

module T = Lint.Tokenizer

(* ---------- tokenizer ---------- *)

let kinds src = List.map (fun t -> t.T.kind) (T.tokenize src)
let texts src = List.map (fun t -> t.T.text) (T.tokenize src)

let tok_nested_comments () =
  check "nested comment is one token" true
    (kinds "(* a (* nested *) b *) x" = [ T.Comment; T.Ident ]);
  check "string closer inside comment ignored" true
    (kinds "(* \"*)\" still comment *) y" = [ T.Comment; T.Ident ])

let tok_strings () =
  check "escaped quote stays inside" true
    (texts "\"a\\\"b\" z" = [ "a\\\"b"; "z" ]);
  check "quoted string literal" true
    (kinds "{xx|raw \" (* not a comment *) |xx} q"
    = [ T.String_lit; T.Ident ]);
  check "idents inside strings are not code" true
    (kinds "\"Hashtbl.iter\"" = [ T.String_lit ])

let tok_chars () =
  check "simple char" true (kinds "'a' f" = [ T.Char_lit; T.Ident ]);
  check "escaped quote char" true (kinds "'\\''" = [ T.Char_lit ]);
  check "newline escape" true (kinds "'\\n'" = [ T.Char_lit ]);
  check "type variable is an op + ident" true
    (kinds "'a list" = [ T.Op; T.Ident; T.Ident ])

(* The cases that break naive scanners: literals nested inside
   comments must be skipped the way the real lexer skips them, or a
   comment-closer inside them eats the rest of the file. *)
let tok_torture () =
  check "char-lit quote inside comment does not open a string" true
    (kinds "(* match c with '\"' -> () *) k" = [ T.Comment; T.Ident ]);
  check "string with escaped quote then closer inside comment" true
    (kinds "(* \"a\\\"*)\" b *) w" = [ T.Comment; T.Ident ]);
  check "quoted string inside comment hides the closer" true
    (kinds "(* {q|*)|q} *) y" = [ T.Comment; T.Ident ]);
  check "escaped-quote char inside comment hides the closer" true
    (kinds "(* '\\'' *) z" = [ T.Comment; T.Ident ]);
  check "mismatched quoted-string id is not a closer" true
    (texts "{a|xx |b} yy|a} z" = [ "xx |b} yy"; "z" ]);
  check "empty-id quoted string" true
    (kinds "{|raw \" body |} tail" = [ T.String_lit; T.Ident ]);
  check "nested quoted delimiters stay one literal" true
    (kinds "{outer|{inner|x|inner}|outer} e" = [ T.String_lit; T.Ident ]);
  check "backslash-backslash before closing quote" true
    (texts "\"a\\\\\" b" = [ "a\\\\"; "b" ]);
  check "brace before pipe-less body is an op" true
    (kinds "{ x = 1 }" <> [ T.String_lit ])

let tok_dotted () =
  check "dotted path merges" true
    (texts "Stdlib.Random.self_init ()"
    = [ "Stdlib.Random.self_init"; "("; ")" ]);
  check "record access merges" true (List.mem "h.keys" (texts "h.keys <- x"));
  check "array access does not merge" true
    (texts "a.(0)" = [ "a"; "."; "("; "0"; ")" ]);
  let t = List.hd (T.tokenize "Stdlib.Random.int") in
  check "has_component" true (T.has_component t "Random");
  check "has_component miss" false (T.has_component t "Rand");
  check "last_component" true (T.last_component t = "int")

let tok_numbers () =
  check "float with exponent" true (kinds "1.5e3" = [ T.Float_lit ]);
  check "trailing-dot float" true (kinds "9007.  " = [ T.Float_lit ]);
  check "int" true (kinds "42" = [ T.Int_lit ]);
  check "hex int" true (kinds "0x9E37L" = [ T.Int_lit ]);
  check "line/col" true
    (match T.tokenize "let x =\n  3.14" with
    | [ _; _; _; f ] -> f.T.line = 2 && f.T.col = 3 && f.T.kind = T.Float_lit
    | _ -> false)

(* ---------- local rules: positive / negative fixtures ---------- *)

let lint ?(path = "lib/geometry/snippet.ml") ?(has_mli = true) src =
  fst (Lint.Engine.lint_source ~has_mli ~path src)

let rules_of ds = List.map (fun d -> d.Lint.Diag.rule) ds
let fires r ?path ?has_mli src = List.mem r (rules_of (lint ?path ?has_mli src))

let d001 () =
  check "Random in lib/core flagged" true
    (fires "D001" ~path:"lib/core/x.ml" "let pick n = Random.int n");
  check "qualified Stdlib.Random flagged" true
    (fires "D001" ~path:"lib/serve/x.ml" "let () = Stdlib.Random.self_init ()");
  check "rand.ml is the home" false
    (fires "D001" ~path:"lib/wireless/rand.ml" "let pick n = Random.int n");
  check "lib/obs exempt" false
    (fires "D001" ~path:"lib/obs/x.ml" "let pick n = Random.int n");
  check "outside lib out of scope" false
    (fires "D001" ~path:"test/x.ml" "let pick n = Random.int n");
  (* single-file: a Random site fires whether or not any
     Pool.parallel_for callback reaches it *)
  let findings, _, _ =
    Lint.Engine.lint_project ~only:[ "D001" ]
      [
        ( "lib/core/a.ml",
          "let unrelated () = Random.int 7\n\n\
           let calm x = x + 1\n\n\
           let spread p = Netgraph.Pool.parallel_for p ~n:2 (fun i -> calm i)\n"
        );
      ]
  in
  check "fires off every Pool path" true
    (match findings with
    | [ d ] -> d.Lint.Diag.rule = "D001" && d.Lint.Diag.line = 1
    | _ -> false)

let d002 () =
  check "unsorted fold in lib/core flagged" true
    (fires "D002" ~path:"lib/core/x.ml"
       "let keys tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []");
  check "Hashtbl.iter feeding output flagged" true
    (fires "D002" ~path:"lib/core/x.ml"
       "let dump ppf tbl =\n\
       \  Hashtbl.iter (fun k v -> Format.fprintf ppf \"%d %d\" k v) tbl");
  check "sort-wrapped fold allowed" false
    (fires "D002" ~path:"lib/core/x.ml"
       "let keys tbl =\n\
       \  List.sort Int.compare (Hashtbl.fold (fun k _ a -> k :: a) tbl [])");
  check "fold piped into a sort allowed" false
    (fires "D002" ~path:"lib/core/x.ml"
       "let keys tbl =\n\
       \  Hashtbl.fold (fun k _ a -> k :: a) tbl [] |> List.sort_uniq Int.compare");
  check "graph.ml is the home" false
    (fires "D002" ~path:"lib/netgraph/graph.ml"
       "let keys tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []");
  check "lib/obs exempt" false
    (fires "D002" ~path:"lib/obs/x.ml"
       "let keys tbl = Hashtbl.fold (fun k _ a -> k :: a) tbl []")

let d003 () =
  check "gettimeofday in lib/core flagged" true
    (fires "D003" ~path:"lib/core/x.ml" "let now () = Unix.gettimeofday ()");
  check "Sys.time in lib/serve flagged" true
    (fires "D003" ~path:"lib/serve/x.ml" "let now () = Sys.time ()");
  check "lib/obs is the home" false
    (fires "D003" ~path:"lib/obs/x.ml" "let now () = Unix.gettimeofday ()");
  check "bench out of scope" false
    (fires "D003" ~path:"bench/x.ml" "let now () = Unix.gettimeofday ()")

let e001 () =
  check "print_string in lib/core flagged" true
    (fires "E001" ~path:"lib/core/x.ml" "let f () = print_string \"x\"");
  check "Printf.printf flagged" true
    (fires "E001" ~path:"lib/core/x.ml" "let f n = Printf.printf \"%d\" n");
  check "fprintf to stderr flagged" true
    (fires "E001" ~path:"lib/core/x.ml" "let f n = Printf.fprintf stderr \"%d\" n");
  check "channel open flagged" true
    (fires "E001" ~path:"lib/serve/x.ml" "let f p = open_in_bin p");
  check "In_channel read flagged" true
    (fires "E001" ~path:"lib/lint/x.ml"
       "let f p = In_channel.with_open_bin p In_channel.input_all");
  check "Unix sleep flagged" true
    (fires "E001" ~path:"lib/distsim/x.ml" "let f () = Unix.sleepf 0.1");
  check "fprintf to a caller's formatter fine" false
    (fires "E001" ~path:"lib/core/x.ml"
       "let pp ppf n = Format.fprintf ppf \"%d\" n");
  check "defining flush fine" false
    (fires "E001" ~path:"lib/core/x.ml" "let flush t = t.n <- 0");
  check "lib/obs is a home" false
    (fires "E001" ~path:"lib/obs/x.ml" "let f () = print_string \"x\"");
  check "lib/viz is a home" false
    (fires "E001" ~path:"lib/viz/x.ml" "let f () = print_string \"x\"");
  check "bin out of scope" false
    (fires "E001" ~path:"bin/x.ml" "let f () = print_string \"x\"")

let m001 () =
  check "toplevel ref in lib/core flagged" true
    (fires "M001" ~path:"lib/core/x.ml" "let acc = ref []");
  check "toplevel table flagged" true
    (fires "M001" ~path:"lib/netgraph/x.ml" "let cache = Hashtbl.create 16");
  check "Atomic global fine" false
    (fires "M001" ~path:"lib/core/x.ml" "let acc = Atomic.make 0");
  check "domain-local note fine" false
    (fires "M001" ~path:"lib/core/x.ml"
       "(* lint: domain-local written once before any pool opens *)\n\
        let table = Array.make 16 0");
  check "function-local state fine" false
    (fires "M001" ~path:"lib/core/x.ml" "let f () = let acc = ref 0 in !acc");
  check "lib/obs exempt" false
    (fires "M001" ~path:"lib/obs/x.ml" "let acc = ref []")

let f001 () =
  check "List.sort compare flagged" true
    (fires "F001" ~path:"lib/netgraph/x.ml" "let s l = List.sort compare l");
  check "min of float flagged" true
    (fires "F001" ~path:"lib/geometry/x.ml" "let m x = min x 0.5");
  check "Float.compare fine" false
    (fires "F001" ~path:"lib/netgraph/x.ml"
       "let s l = List.sort Float.compare l");
  check "defining compare fine" false
    (fires "F001" ~path:"lib/netgraph/x.ml" "let compare a b = 0");
  check "int min fine" false
    (fires "F001" ~path:"lib/netgraph/x.ml" "let m x = min 1 x");
  check "core out of scope" false
    (fires "F001" ~path:"lib/core/x.ml" "let s l = List.sort compare l")

let f002 () =
  check "x = 0. flagged" true
    (fires "F002" ~path:"lib/netgraph/x.ml" "let f x = x = 0.");
  check "<> 1e-9 flagged" true
    (fires "F002" ~path:"lib/delaunay/x.ml" "let f x = x <> 1e-9");
  check "= nan flagged" true
    (fires "F002" ~path:"lib/geometry/x.ml" "let f x = x = nan");
  check "let binding fine" false
    (fires "F002" ~path:"lib/geometry/x.ml" "let x = 0.");
  check "record literal fine" false
    (fires "F002" ~path:"lib/geometry/x.ml"
       "let p = { x = 0.; y = 1.5 }");
  check "optional default fine" false
    (fires "F002" ~path:"lib/geometry/x.ml"
       "let f ?(eps = 1e-9) x = x + eps");
  check "predicates.ml exempt" false
    (fires "F002" ~path:"lib/geometry/predicates.ml" "let f e = e = 0.")

let h001 () =
  check "lib module without mli flagged" true
    (fires "H001" ~path:"lib/geometry/x.ml" ~has_mli:false "let x = 1");
  check "with mli fine" false
    (fires "H001" ~path:"lib/geometry/x.ml" ~has_mli:true "let x = 1");
  check "bin exempt" false
    (fires "H001" ~path:"bin/x.ml" ~has_mli:false "let x = 1")

let h002 () =
  check "Obj.magic flagged" true
    (fires "H002" ~path:"bin/x.ml" "let f x = Obj.magic x");
  check "Obj.repr fine" false
    (fires "H002" ~path:"bin/x.ml" "let f x = Obj.repr x")

let h003 () =
  check "bare assert false flagged" true
    (fires "H003" ~path:"lib/core/x.ml" "let f () = assert false");
  check "commented assert false fine" false
    (fires "H003" ~path:"lib/core/x.ml"
       "let f () = assert false (* unreachable: guarded above *)");
  check "empty failwith flagged" true
    (fires "H003" ~path:"lib/core/x.ml" "let f () = failwith \"\"");
  check "failwith with message fine" false
    (fires "H003" ~path:"lib/core/x.ml" "let f () = failwith \"boom\"");
  check "ordinary assert fine" false
    (fires "H003" ~path:"lib/core/x.ml" "let f x = assert (x > 0)");
  check "tests exempt" false
    (fires "H003" ~path:"test/x.ml" "let f () = assert false")

let o001 () =
  check "uppercase name flagged" true
    (fires "O001" ~path:"lib/serve/x.ml"
       "let c = Obs.counter \"Serve.Queries\"");
  check "space in name flagged" true
    (fires "O001" ~path:"bin/x.ml" "let d = Obs.dist \"serve hops\"");
  check "dotted lowercase fine" false
    (fires "O001" ~path:"lib/serve/x.ml"
       "let c = Obs.counter \"serve.queries_total.v2\"");
  check "computed names skipped" false
    (fires "O001" ~path:"bench/x.ml"
       "let c = Obs.counter (Printf.sprintf \"bench.%s.n%d\" name n)")

let o002 () =
  check "raw Obs.Trace.send in lib flagged" true
    (fires "O002" ~path:"lib/core/x.ml"
       "let f () = Obs.Trace.send ~round:0 ~time:0. ~kind:\"k\" ~src:0 \
        ~dst:(-1) ~lam:1 ~sseq:0");
  check "the stamping helper itself is exempt" false
    (fires "O002" ~path:"lib/distsim/stamp.ml"
       "let f () = Obs.Trace.send ~round:0 ~time:0. ~kind:\"k\" ~src:0 \
        ~dst:(-1) ~lam:1 ~sseq:0");
  check "unrelated sends out of scope" false
    (fires "O002" ~path:"lib/core/x.ml" "let f ch m = Channel.send ch m")

(* ---------- suppressions ---------- *)

let suppression () =
  let src =
    "let f x =\n\
    \  (* lint: disable H002 serialized through a stable tag, reviewed *)\n\
    \  Obj.magic x"
  in
  let findings, cut = Lint.Engine.lint_source ~path:"lib/core/x.ml" src in
  check "suppressed" true
    (not (List.mem "H002" (rules_of findings)));
  check "counted" true (cut = 1);
  let wrong =
    "let f x =\n\
    \  (* lint: disable H003 wrong rule *)\n\
    \  Obj.magic x"
  in
  check "wrong rule id does not silence" true
    (fires "H002" ~path:"lib/core/x.ml" wrong);
  let reasonless =
    "let f x =\n\
    \  (* lint: disable H002 *)\n\
    \  Obj.magic x"
  in
  check "reasonless suppression is inert" true
    (fires "H002" ~path:"lib/core/x.ml" reasonless);
  (* project runs honour the same inline suppressions *)
  let proj =
    [
      ( "lib/core/a.ml",
        "let work _ =\n\
        \  (* lint: disable E001 single writer: the pool pins slot 0 *)\n\
        \  print_endline \"x\"\n" );
    ]
  in
  let findings, cut, _ = Lint.Engine.lint_project ~only:[ "E001" ] proj in
  check "project finding suppressed in its file" true (findings = []);
  check "project suppression counted" true (cut = 1)

(* ---------- baseline ---------- *)

let mk_diag ?(rule = "D002") ?(file = "lib/core/x.ml") ?(line = 3) () =
  {
    Lint.Diag.rule;
    severity = Lint.Diag.Error;
    file;
    line;
    col = 1;
    message = "msg";
    excerpt = "Hashtbl.fold ...";
  }

let baseline_roundtrip () =
  let entries =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/obs/obs.ml"; count = 3;
        reason = "order-insensitive reset" };
      { Lint.Baseline.rule = "H003"; file = "lib/core/ldel.ml"; count = 1;
        reason = "documented in DESIGN.md" };
    ]
  in
  let back = Lint.Baseline.of_string (Lint.Baseline.to_string entries) in
  check "round-trips" true (back = entries);
  check "reasonless entry rejected" true
    (try
       ignore (Lint.Baseline.of_string "D002\tlib/x.ml\t1\t \n");
       false
     with Failure _ -> true)

let baseline_apply () =
  let e =
    [ { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 1;
        reason = "grandfathered" } ]
  in
  let d1 = mk_diag ~line:3 () and d2 = mk_diag ~line:9 () in
  let keep, grand = Lint.Baseline.apply e [ d2; d1 ] in
  check "budget consumed in position order" true
    (match grand with [ (g, r) ] -> g.Lint.Diag.line = 3 && r = "grandfathered" | _ -> false);
  check "excess finding still fails" true
    (match keep with [ k ] -> k.Lint.Diag.line = 9 | _ -> false);
  let other = mk_diag ~rule:"D001" () in
  let keep2, _ = Lint.Baseline.apply e [ other ] in
  check "other rules unaffected" true (keep2 = [ other ]);
  check "of_findings collapses" true
    (Lint.Baseline.of_findings ~reason:"r" [ d1; d2 ]
    = [ { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 2;
          reason = "r" } ])

let baseline_merge () =
  let old =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 9;
        reason = "documented debt" };
      { Lint.Baseline.rule = "M002"; file = "lib/core/gone.ml"; count = 2;
        reason = "stale, must be pruned" };
    ]
  in
  let fresh =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/core/x.ml"; count = 2;
        reason = "TODO: justify or fix" };
      { Lint.Baseline.rule = "H003"; file = "lib/core/y.ml"; count = 1;
        reason = "TODO: justify or fix" };
    ]
  in
  let merged = Lint.Baseline.merge_reasons ~old fresh in
  check "reason carried over, count refreshed" true
    (match merged with
    | a :: _ -> a.Lint.Baseline.reason = "documented debt" && a.count = 2
    | [] -> false);
  check "new entries keep the placeholder" true
    (match merged with
    | [ _; b ] -> b.Lint.Baseline.reason = "TODO: justify or fix"
    | _ -> false);
  check "stale old entries are not resurrected" true
    (List.length merged = 2)

(* ---------- JSON ---------- *)

let json_roundtrip () =
  let d =
    {
      Lint.Diag.rule = "F002";
      severity = Lint.Diag.Warning;
      file = "lib/geometry/x.ml";
      line = 12;
      col = 7;
      message = "tricky \"quotes\" and \\ backslash";
      excerpt = "if x = 0. then (* \"why\" *)";
    }
  in
  (match Lint.Diag.of_json_line (Lint.Diag.to_json_line d) with
  | Some back -> check "finding round-trips" true (Lint.Diag.equal d back)
  | None -> Alcotest.fail "finding did not parse back");
  let report =
    Lint.Diag.to_json_line d ^ "\n\n"
    ^ "{\"kind\":\"summary\",\"findings\":1,\"grandfathered\":0,\"suppressed\":0,\"files\":1}\n"
  in
  check "reader skips summary and blanks" true
    (match Lint.Diag.read_json_lines report with
    | [ one ] -> Lint.Diag.equal d one
    | _ -> false)

(* ---------- self-lint ---------- *)

(* Tests run from _build/default/test; the tree above it is the
   (copied) repository root, declared as deps in test/dune. *)
let repo_root = ".."

let read_file path = In_channel.with_open_bin path In_channel.input_all

let repo_files () =
  Lint.Engine.scan_files repo_root
  |> List.map (fun p -> (p, read_file (Filename.concat repo_root p)))

let self_lint () =
  let baseline_file = Filename.concat repo_root "lint.baseline" in
  check "baseline present" true (Sys.file_exists baseline_file);
  let baseline = Lint.Baseline.of_string (read_file baseline_file) in
  List.iter
    (fun (e : Lint.Baseline.entry) ->
      check ("baseline reason: " ^ e.file) true
        (String.trim e.reason <> ""))
    baseline;
  let res = Lint.Engine.run ~baseline (repo_files ()) in
  List.iter
    (fun d -> Format.eprintf "self-lint: %a@." Lint.Diag.pp d)
    res.findings;
  check "zero unsuppressed findings" true (res.findings = []);
  check "scanned the whole tree" true (res.files > 50);
  check "no stale baseline entries" true (res.unused_baseline = []);
  (* the --json report of everything the run saw must round-trip
     through the reader *)
  let all = List.map fst res.grandfathered in
  let report =
    String.concat "\n" (List.map Lint.Diag.to_json_line all)
    ^ "\n{\"kind\":\"summary\",\"findings\":0,\"grandfathered\":0,\"suppressed\":2,\"files\":98}"
  in
  let back = Lint.Diag.read_json_lines report in
  check "self report round-trips" true
    (List.length back = List.length all
    && List.for_all2 Lint.Diag.equal all back)

let self_stale_baseline () =
  let fake =
    [
      { Lint.Baseline.rule = "D002"; file = "lib/obs/obs.ml"; count = 4;
        reason = "order-insensitive reset" };
    ]
  in
  let res = Lint.Engine.run ~baseline:fake (repo_files ()) in
  check "stale entry surfaces in unused_baseline" true
    (res.unused_baseline <> [])

let catalog () =
  let rules = Lint.Rules.all in
  let ids = List.map (fun (r : Lint.Rules.rule) -> r.id) rules in
  check "twelve rules, id-sorted" true
    (List.length ids = 12 && ids = List.sort String.compare ids);
  let families =
    List.sort_uniq String.compare
      (List.map (fun (r : Lint.Rules.rule) -> r.family) rules)
  in
  check "four families" true (List.length families = 4);
  List.iter
    (fun (r : Lint.Rules.rule) ->
      check ("doc for " ^ r.id) true (String.length r.doc > 20))
    rules;
  check "find" true
    (match Lint.Rules.find "D001" with
    | Some r -> r.id = "D001" && r.family = "determinism"
    | None -> false);
  check "retired ids are gone" true
    (List.for_all
       (fun id -> Lint.Rules.find id = None)
       [ "M002"; "E002"; "E003" ]);
  check "find miss" true (Lint.Rules.find "Z999" = None)

let suites =
  [
    ( "lint.tokenizer",
      [
        Alcotest.test_case "nested comments" `Quick tok_nested_comments;
        Alcotest.test_case "strings" `Quick tok_strings;
        Alcotest.test_case "chars" `Quick tok_chars;
        Alcotest.test_case "torture: literals in comments" `Quick tok_torture;
        Alcotest.test_case "dotted paths" `Quick tok_dotted;
        Alcotest.test_case "numbers, positions" `Quick tok_numbers;
      ] );
    ( "lint.rules",
      [
        Alcotest.test_case "D001 Stdlib.Random" `Quick d001;
        Alcotest.test_case "D002 hash-order iter" `Quick d002;
        Alcotest.test_case "D003 wall clocks" `Quick d003;
        Alcotest.test_case "E001 direct I/O" `Quick e001;
        Alcotest.test_case "F001 poly compare" `Quick f001;
        Alcotest.test_case "F002 float literal eq" `Quick f002;
        Alcotest.test_case "H001 missing mli" `Quick h001;
        Alcotest.test_case "H002 obj magic" `Quick h002;
        Alcotest.test_case "H003 silent dead ends" `Quick h003;
        Alcotest.test_case "M001 toplevel mutable" `Quick m001;
        Alcotest.test_case "O001 metric name convention" `Quick o001;
        Alcotest.test_case "O002 stamped trace events" `Quick o002;
        Alcotest.test_case "catalog" `Quick catalog;
      ] );
    ( "lint.plumbing",
      [
        Alcotest.test_case "suppressions" `Quick suppression;
        Alcotest.test_case "baseline round-trip" `Quick baseline_roundtrip;
        Alcotest.test_case "baseline apply" `Quick baseline_apply;
        Alcotest.test_case "baseline reason merge" `Quick baseline_merge;
        Alcotest.test_case "json round-trip" `Quick json_roundtrip;
      ] );
    ( "lint.self",
      [
        Alcotest.test_case "repo self-lints clean" `Quick self_lint;
        Alcotest.test_case "stale baseline detection" `Quick self_stale_baseline;
      ] );
  ]

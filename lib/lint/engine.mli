(** Walking, per-file linting, suppression and baseline plumbing.

    The tree walk covers [lib], [bin], [bench], [examples] and [test]
    under a root, skipping [_build], [fixtures] and dot-directories;
    directory entries are visited in sorted order so reports are
    bit-identical across machines.  Every rule ({!Rules.all}) runs per
    .ml file; the caller reads the files, so the library stays free of
    I/O. *)

type result = {
  findings : Diag.t list;  (** unsuppressed, after the baseline; sorted *)
  grandfathered : (Diag.t * string) list;
      (** baselined findings with the baseline entry's reason *)
  suppressed : int;  (** silenced by inline [(* lint: disable ... *)] *)
  files : int;  (** .ml files scanned *)
  unused_baseline : Baseline.entry list;
      (** stale entries whose budget was not fully consumed *)
}

(** Repo-relative paths ('/'-separated) of the .ml and .mli files
    under [root]. *)
val scan_files : string -> string list

(** [lint_source ~path contents] lints one compilation unit with the
    given rules (default: {!Rules.all}), applying inline
    suppressions.  [has_mli] (default [true]) feeds H001; [path] is
    the repo-relative path used for rule scoping.  Returns sorted
    findings and the count of inline-suppressed ones. *)
val lint_source :
  ?rules:Rules.rule list ->
  ?has_mli:bool ->
  path:string ->
  string ->
  Diag.t list * int

(** [lint_project files] lints an in-memory project of
    [(path, contents)] pairs: every rule on every [.ml] entry, with
    [has_mli] read off the [.mli] entries.  [only] filters by rule id.
    Returns (sorted findings, inline-suppressed count, number of .ml
    files). *)
val lint_project :
  ?only:string list -> (string * string) list -> Diag.t list * int * int

(** {!lint_project} over [files] (typically {!scan_files}' paths with
    their contents), netted off [baseline]. *)
val run :
  ?only:string list ->
  ?baseline:Baseline.entry list ->
  (string * string) list ->
  result

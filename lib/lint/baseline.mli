(** The committed baseline of grandfathered findings.

    Format: one tab-separated entry per line,
    [RULE <tab> FILE <tab> COUNT <tab> REASON], matching up to [COUNT]
    findings of [RULE] in [FILE] in position order — a new finding of
    an already-baselined kind still fails.  ['#'] comments and blank
    lines are ignored; the reason is mandatory. *)

type entry = { rule : string; file : string; count : int; reason : string }

(** Raises [Failure] with a line number on malformed entries. *)
val of_string : string -> entry list

(** Render entries with the format header; {!of_string} round-trips. *)
val to_string : entry list -> string

(** [apply entries findings] splits findings (sorted by position) into
    (still failing, grandfathered-with-reason). *)
val apply :
  entry list -> Diag.t list -> Diag.t list * (Diag.t * string) list

(** Collapse findings into entries (per rule x file counts), e.g. for
    [--write-baseline]; every entry carries [reason]. *)
val of_findings : reason:string -> Diag.t list -> entry list

(** [merge_reasons ~old entries] carries the written reasons of [old]
    over to matching (rule, file) entries, so [--write-baseline]
    prunes stale entries without losing the debt notes on surviving
    ones. *)
val merge_reasons : old:entry list -> entry list -> entry list

(** The rule catalog: single-file project invariants checked at the
    token level.

    Families (see DESIGN.md §9 for the rationale per rule):
    - determinism, over every lib/** unit outside lib/obs: D001 no
      [Stdlib.Random] (lib/wireless/rand.ml exempt); D002 no
      unsorted [Hashtbl.iter]/[fold]; D003 no wall clocks.
    - multicore-safety, same scope: M001 no unguarded module-toplevel
      mutable state; E001 no direct stdout/stderr/channel/Unix/Thread
      I/O (lib/viz exempt too).
    - float-robustness: F001 no polymorphic [compare]/[min]/[max] on
      floats in lib/geometry, lib/netgraph, lib/delaunay; F002 no
      exact float-literal equality outside predicates.ml.
    - hygiene: H001 every lib module has an .mli; H002 no
      [Obj.magic]; H003 no bare [assert false] / empty [failwith];
      O001 metric name literals follow the dotted convention; O002
      protocol trace events flow through [Distsim.Stamp]. *)

type ctx = {
  path : string;  (** repo-relative, '/'-separated *)
  code : Tokenizer.token array;  (** comments stripped *)
  comments : Tokenizer.token list;
  lines : string array;  (** source lines, for excerpts *)
  has_mli : bool;  (** a sibling .mli exists (H001) *)
}

type rule = {
  id : string;  (** e.g. ["F001"] *)
  family : string;
  severity : Diag.severity;
  title : string;
  doc : string;  (** rationale, reused by [--list-rules] and the docs *)
  check : ctx -> Diag.t list;
}

(** All rules, in catalog order (stable, id-sorted). *)
val all : rule list

val find : string -> rule option

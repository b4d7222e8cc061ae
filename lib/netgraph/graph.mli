(** The graph type's historical name, and the library's edge and
    hash-table helpers.

    [t], {!of_edges} and {!equal} are {!Csr.t}, {!Csr.of_edges} and
    {!Csr.equal} under their old names, kept only for the benchmark
    program under [perfbench/], which compiles against them; library
    code uses {!Csr} directly.  {!compare_edge} and the [sorted_tbl_*]
    helpers live here because this file is the home of lint rule D002
    (deterministic hash-table iteration). *)

type t = Csr.t

val of_edges : int -> (int * int) list -> t
val equal : t -> t -> bool

(** [compare_edge] orders int pairs lexicographically — exactly as the
    polymorphic [compare] does, without the boxed C call; the
    comparator for sorting and deduplicating edge lists. *)
val compare_edge : int * int -> int * int -> int

(** {2 Deterministic hash-table iteration}

    [Hashtbl.iter]/[fold] visit bindings in hash order, which varies
    with insertion history; anywhere that order can reach an output or
    a metric must go through these wrappers instead (lint rule D002).
    Bindings are materialized and sorted by key with the explicit
    comparator before visiting; with [Hashtbl.replace]-maintained
    tables the result is a deterministic one-pass iteration. *)

val sorted_tbl_bindings :
  ('k -> 'k -> int) -> ('k, 'v) Hashtbl.t -> ('k * 'v) list

val sorted_tbl_iter :
  ('k -> 'k -> int) -> ('k -> 'v -> unit) -> ('k, 'v) Hashtbl.t -> unit

val sorted_tbl_fold :
  ('k -> 'k -> int) ->
  ('k -> 'v -> 'a -> 'a) ->
  ('k, 'v) Hashtbl.t ->
  'a ->
  'a

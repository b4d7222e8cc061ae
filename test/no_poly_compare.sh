#!/bin/sh
# usage: no_poly_compare.sh OBJDUMP OCAMLOBJINFO STDLIB_DIR OBJECT...
#
# Exits 1 when it finds a call, 2 when it cannot read its inputs.
# Fails, naming each function, when a native object calls one of
# OCaml's polymorphic comparison primitives.  Without flambda, an
# [=], [<>], [<], [compare] ... whose operands the type checker cannot
# pin to [int] (or another base type) compiles to a C call such as
# [caml_equal] per comparison; in a kernel loop that is most of its
# time.  The calls show up as relocations in [objdump -dr].
#
# The stdlib hides more of them: [List.mem], [List.assoc] and friends
# compare with [compare] whatever the element type, and so do the
# keyed entry points of the generic [Hashtbl].  A call to one of
# those shows up as a relocation to its stdlib symbol, e.g.
# [camlStdlib__List.mem_471], and fails the guard the same way.  The
# symbols are read from the stdlib's own .cmx files: the generic
# functions are the closed, top-level entries of the module, while
# [Hashtbl.Make]'s tables (which compare with the functor's equality)
# get functions of the same name nested inside the functor.
objdump=$1
objinfo=$2
stdlib=$3
shift 3
generic=$({ "$objinfo" "$stdlib/stdlib__List.cmx" &&
  "$objinfo" "$stdlib/stdlib__Hashtbl.cmx"; } | awk '
  /^   [0-9]+: function camlStdlib__List\.(mem|assoc|assoc_opt|mem_assoc|remove_assoc)_[0-9]+ .*\(closed\)/ ||
  /^   [0-9]+: function camlStdlib__Hashtbl\.(add|replace|find|find_opt|find_all|mem|remove)_[0-9]+ .*\(closed\)/ {
    print $3
  }')
# five List and seven Hashtbl functions: anything else means the
# .cmx layout was not understood, and the guard would go blind
if [ "$(printf '%s\n' "$generic" | grep -c .)" != 12 ]; then
  echo "no_poly_compare: cannot read the stdlib entry points from $stdlib" >&2
  exit 2
fi
status=0
for o in "$@"; do
  dis=$("$objdump" -dr "$o") || {
    echo "no_poly_compare: $objdump -dr $o failed" >&2
    exit 2
  }
  hits=$(printf '%s\n' "$dis" | awk -v generic="$generic" '
    BEGIN { split(generic, g, "\n"); for (i in g) stdlib[g[i]] = 1 }
    /^[0-9a-f]+ <.*>:$/ { fn = substr($2, 2, length($2) - 3) }
    /R_[A-Z0-9_]+/ && $NF ~ /^caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal)([-+]0x[0-9a-f]+)?$/ {
      p = $NF
      sub(/[-+]0x[0-9a-f]+$/, "", p)
      print fn, p
    }
    /R_[A-Z0-9_]+/ && $NF ~ /^camlStdlib__/ {
      p = $NF
      sub(/[-+]0x[0-9a-f]+$/, "", p)
      if (p in stdlib) {
        sub(/_[0-9]+$/, "", p)
        sub(/^camlStdlib__/, "Stdlib.", p)
        print fn, p
      }
    }' | sort | uniq -c)
  if [ -n "$hits" ]; then
    printf '%s\n' "$hits" | while read -r count fn prim; do
      echo "$(basename "$o"): $fn calls $prim ($count site(s))"
    done
    status=1
  fi
done
exit $status

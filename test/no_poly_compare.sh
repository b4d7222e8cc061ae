#!/bin/sh
# usage: no_poly_compare.sh OBJDUMP OBJECT...
#
# Fails, naming each function, when a native object calls one of
# OCaml's polymorphic comparison primitives.  Without flambda, an
# [=], [<>], [<], [compare] ... whose operands the type checker cannot
# pin to [int] (or another base type) compiles to a C call such as
# [caml_equal] per comparison; in a kernel loop that is most of its
# time.  The calls show up as relocations in [objdump -dr].
objdump=$1
shift
status=0
for o in "$@"; do
  dis=$("$objdump" -dr "$o") || {
    echo "no_poly_compare: $objdump -dr $o failed" >&2
    exit 1
  }
  hits=$(printf '%s\n' "$dis" | awk '
    /^[0-9a-f]+ <.*>:$/ { fn = substr($2, 2, length($2) - 3) }
    /R_[A-Z0-9_]+/ && $NF ~ /^caml_(equal|notequal|compare|lessthan|lessequal|greaterthan|greaterequal)([-+]0x[0-9a-f]+)?$/ {
      p = $NF
      sub(/[-+]0x[0-9a-f]+$/, "", p)
      print fn, p
    }' | sort | uniq -c)
  if [ -n "$hits" ]; then
    printf '%s\n' "$hits" | while read -r count fn prim; do
      echo "$(basename "$o"): $fn calls $prim ($count site(s))"
    done
    status=1
  fi
done
exit $status

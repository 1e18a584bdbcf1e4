#!/bin/sh
# Line counts (informational) for the sets ROADMAP.md gates:
#
#   - lib/core + lib/net + test/support's Crash_harness (item 7's gate);
#   - lib/net alone (the wire protocol, server, client and stats report);
#   - lib/txn alone, and lib/core + lib/txn (item 5's gate: the engine
#     and the transaction layer it commits through).
#
# Each line prints the .ml count, the .mli count and their sum, as
# `wc -l` counts them.
#
# Usage: tools/loc.sh
set -eu
cd "$(dirname "$0")/.."

report() {
  label=$1
  shift
  ml=0
  mli=0
  for f in "$@"; do
    n=$(wc -l < "$f")
    case $f in
      *.mli) mli=$((mli + n)) ;;
      *) ml=$((ml + n)) ;;
    esac
  done
  echo "$label: $ml .ml + $mli .mli = $((ml + mli))"
}

report "lib/core + lib/net + Crash_harness" \
  lib/core/*.ml lib/core/*.mli lib/net/*.ml lib/net/*.mli \
  test/support/crash_harness.ml test/support/crash_harness.mli
report "lib/net" lib/net/*.ml lib/net/*.mli
report "lib/txn" lib/txn/*.ml lib/txn/*.mli
report "lib/core + lib/txn" \
  lib/core/*.ml lib/core/*.mli lib/txn/*.ml lib/txn/*.mli

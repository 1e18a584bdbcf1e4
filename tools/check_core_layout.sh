#!/bin/sh
# Lint: lib/core stays split along its decisions.
#
#   - no lib/core/*.ml is longer than 700 lines: a module that outgrows
#     that holds more than one decision and should be split;
#   - snapshot visibility has one owner: the version store (`Mvcc_store`)
#     and the commit clock (`commit_ts`) are named in lib/core/versions.ml
#     and in no other lib/core/*.ml.
#
# Usage: tools/check_core_layout.sh
set -eu
cd "$(dirname "$0")/.."

max_lines=700
status=0

for f in lib/core/*.ml; do
  n=$(wc -l < "$f")
  if [ "$n" -gt "$max_lines" ]; then
    echo "$f: $n lines (more than $max_lines): split it along its decisions"
    status=1
  fi
  if [ "$f" != lib/core/versions.ml ] && grep -n 'Mvcc_store\|commit_ts' "$f"; then
    echo "$f: names Mvcc_store or commit_ts: snapshot visibility belongs to Versions"
    status=1
  fi
done

if [ "$status" -ne 0 ]; then
  echo "check_core_layout: lib/core layout rules broken (see above)" >&2
fi
exit $status

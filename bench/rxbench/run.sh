#!/usr/bin/env bash
# Builds rxd and rxbench from the checkout this script sits in, then runs
# rxbench with the given arguments; arguments that start with a flag mean
# `rxbench run`. Build output goes to stderr, so the last line of stdout
# stays the benchmark's summary.
set -euo pipefail
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . ./bin/rxd.exe ./bench/rxbench/rxbench.exe 1>&2
case "${1:-}" in
  -* | "") set -- run "$@" ;;
esac
exec ./_build/default/bench/rxbench/rxbench.exe "$@"

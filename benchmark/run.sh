#!/bin/sh
# Builds the benchmark from source and runs it:
#
#   sh benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Any main.exe subcommand works the same way (trace, compare, smoke).
# The dune cache is off, so the build writes only under _build/.
set -e
cd "$(dirname "$0")/.."
dune build --root . --cache=disabled --display=quiet ./benchmark/main.exe
exec ./_build/default/benchmark/main.exe "$@"

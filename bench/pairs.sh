#!/bin/sh
# Alternated parent-vs-change benchmark pairs, one command:
#
#   sh bench/pairs.sh PARENT_ROOT CHANGE_ROOT [PAIRS] [SECONDS]
#
# PARENT_ROOT and CHANGE_ROOT are two checkouts of the repository.  For
# each workload BENCHMARK.json lists, the script runs PAIRS pairs
# (default 10) of
#
#   sh benchmark/run.sh --workload W --seed 1 --seconds S --trace 0
#
# one run in each tree, the parent first in even pairs and the change
# first in odd ones, appending every run to parent.json or change.json
# in a fresh temporary directory.  SECONDS defaults to BENCHMARK.json's
# run_seconds.  It then builds and runs the change tree's
#
#   bench/main.exe --pair-summary parent.json change.json BENCHMARK.json
#
# which prints, per workload and end-to-end metric, each side's
# p25/p50/p75 over the pairs, the change of the medians in percent and
# how many of the pairs the change won, and last the change tree's
#
#   benchmark/main.exe compare parent.json change.json
#
# which refuses runs from different hosts and prints, per workload and
# metric, both medians, the change, both spreads, the bound and the
# verdict under BENCHMARK.json's bounds and spread rule, plus the
# virtual-time results that must not move on the same seed.  The exit
# status is compare's: non-zero on any REGRESSED or CHANGED row.  A run
# whose checks fail stops the script with its log's path.
set -e
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
  echo "usage: sh bench/pairs.sh PARENT_ROOT CHANGE_ROOT [PAIRS] [SECONDS]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
bench="$change/BENCHMARK.json"
pairs=${3:-10}
seconds=${4:-$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' "$bench")}
workloads=$(sed -n 's/.*{"name": "\([^"]*\)", "why".*/\1/p' "$bench")
out=$(mktemp -d)

# One run of workload $3 in tree $1, appended to $out/$2.json.
run() {
  if ! (cd "$1" && sh benchmark/run.sh --workload "$3" --seed 1 --seconds "$seconds" \
    --trace 0 --out "$out/$2.json") >> "$out/$2-$3.log" 2>&1; then
    echo "pairs: the $2 run of $3 failed; see $out/$2-$3.log" >&2
    exit 1
  fi
}

echo "pairs: $pairs pairs of ${seconds}-s runs per workload; runs in $out"
for w in $workloads; do
  i=0
  while [ "$i" -lt "$pairs" ]; do
    if [ $((i % 2)) -eq 0 ]; then
      run "$parent" parent "$w"
      run "$change" change "$w"
    else
      run "$change" change "$w"
      run "$parent" parent "$w"
    fi
    i=$((i + 1))
  done
  echo "pairs: $w done"
done
(cd "$change" && dune build --root . --cache=disabled --display=quiet ./bench/main.exe)
"$change/_build/default/bench/main.exe" --pair-summary "$out/parent.json" "$out/change.json" "$bench"
echo
exec "$change/_build/default/benchmark/main.exe" compare "$out/parent.json" "$out/change.json" \
  --bench "$bench"

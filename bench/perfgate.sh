#!/bin/sh
# One-command perf + fault gate (also available as `dune build @perfgate`):
#
#   1. build the bench and chaos binaries — once, up front: everything
#      below invokes _build artifacts directly, because running dune
#      inside dune deadlocks on the build lock
#   2. fresh micro-benchmark run (best of 3 rounds — single Bechamel
#      estimates jitter by tens of percent on a loaded single-core
#      machine, so the gate compares noise-floor minima on both sides),
#      diffed against the committed BENCH_micro.json "after" baseline
#      (itself recorded with --rounds 3); any benchmark more than 20%
#      slower fails the gate, and so does a baseline row the fresh run
#      no longer produces (a gone row means the gate stopped measuring)
#   3. baseline completeness: the committed BENCH_micro.json must still
#      carry the micro baseline and the sharded-scale sweep rows — a
#      gate comparing against a missing label must fail loudly, not
#      silently skip
#   4. sharded-scale smoke: the 8-shard engine on 4 domains at reduced
#      flow count, with a modest absolute events/sec floor (the full
#      10M-flow sweep is recorded in BENCH_micro.json, not rerun here)
#   5. packet-path gate: the pktpath macro at batching factors 1 and 64
#      must meet its absolute floors per factor — a conservative
#      packets/sec floor and an exact minor-words/packet ceiling (the
#      full 1/16/64/256 sweep is recorded in BENCH_micro.json, not
#      rerun here)
#   5b. flow-state-core gate: the flat open-addressing table must beat
#      the Hashtbl baseline by at least 1.3x on 1M-entry find hits (it
#      measures ~3x when the machine is quiet; the floor catches a
#      probe path that collapsed, not scheduler noise)
#   6. telemetry-overhead gate: the tracked scheduler rows re-measured
#      with a live metric registry attached must stay within 5% of
#      their registry-free twins (min-of-3 rounds, off/on pair also
#      recorded under the "micro-telemetry" label)
#   6b. observability-overhead gate: the chain workload rerun with the
#      full Timeseries scraper + SLO evaluation attached must stay
#      within 3% (tick cost measured in-process — wall-pair quotients
#      swing by tens of percent on a loaded single-core machine)
#   7. CHAOS_ITERS=5 chaos smoke: the full fault-plan suite at reduced
#      iteration count
#   8. HA soak smoke: the reduced-scale soak bench (fingerprint must
#      match the fault-free oracle) plus a SOAK_ITERS=5 slice of the
#      chaos-soak seed matrix (the 100-seed acceptance matrix runs via
#      `dune build @soakcheck`, not here)
#
# Usage: bench/perfgate.sh   (from anywhere inside the repo)
set -eu
cd "$(dirname "$0")/.."
dune build bench/main.exe test/test_chaos.exe test/test_soak.exe
bench="$PWD/_build/default/bench/main.exe"
chaos="$PWD/_build/default/test/test_chaos.exe"
soak="$PWD/_build/default/test/test_soak.exe"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# micro --json writes ./BENCH_micro.json: run it in a scratch directory
# so the committed baseline is never clobbered.
(cd "$tmp" && "$bench" micro --json --label fresh --rounds 3)
"$bench" micro --compare "BENCH_micro.json#after" "$tmp/BENCH_micro.json#fresh"
"$bench" micro --require-labels BENCH_micro.json \
  after,scale-d1,scale-d2,scale-d4,scale-d8,pktpath-b1,pktpath-b16,pktpath-b64,pktpath-b256,statetable-10k,statetable-1m,soak,obs
# The smoke floor is deliberately conservative: it catches a sharded
# core that collapsed (orders of magnitude), not scheduler noise on a
# loaded or single-core machine.
(cd "$tmp" && "$bench" scale --flows 20000 --domains 4 --min-events-per-sec 50000)
(cd "$tmp" && "$bench" pktpath --batch 1 --batch 64)
(cd "$tmp" && "$bench" statetable --min-speedup 1.3)
(cd "$tmp" && "$bench" micro-telemetry --gate 5 --json --label micro-telemetry)
(cd "$tmp" && "$bench" obs --gate 3)
CHAOS_ITERS=5 "$chaos"
(cd "$tmp" && "$bench" soak)
SOAK_ITERS=5 "$soak"
echo "perfgate: OK"

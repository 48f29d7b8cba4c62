#!/usr/bin/env sh
# Regression gate for everything the benchmarks report, run from the
# repository root:
#
#   sh scripts/bench_gate.sh [out-dir]
#
# Phase 1 — simulated numbers are byte-identical. Regenerate the three
# committed BENCH_<ID>.json baselines and `cmp` each against the
# committed file. The same stbench run compares every metric against the
# committed baselines at zero tolerance, so when a byte moves the log
# names the counters and rates that moved. Either failure fails the gate.
#
# Phase 2 — the host-speed benchmark runs clean. Run every perfbench
# workload briefly at seed 0, where every paper point of every scheme
# must equal its committed point byte for byte and every fuzz run must
# make its recorded number of scheduling decisions. The last stdout line
# of each run must report "correct": true and "failed": 0. Host speed
# itself is not gated here: compare it by running perfbench on two
# commits on the same host (see perfbench/METRICS.md).
#
# An optional directory argument keeps the regenerated baselines and the
# perfbench result lines (CI uploads them); by default they go to a temp
# dir.
set -eu

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
OUT=${1:-$TMP/out}
mkdir -p "$OUT"

echo "== phase 1: committed baselines regenerate byte-identically =="
go build -o ./bin/stbench ./cmd/stbench
rc=0
./bin/stbench -quick -run E1a,E2b,E3 -baseline "$OUT" -compare . -tol 0 >/dev/null || rc=$?
for id in E1a E2b E3; do
  cmp "BENCH_$id.json" "$OUT/BENCH_$id.json" || {
    echo "FAIL: BENCH_$id.json is not byte-identical to a fresh run" >&2
    rc=1
  }
done
[ "$rc" = 0 ] || { echo "FAIL: simulated numbers moved (see the compare report above)" >&2; exit 1; }
echo "OK: BENCH_E1a/E2b/E3 byte-identical"

echo "== phase 2: perfbench workloads correct at seed 0 =="
for w in paper-st paper-smr fuzz; do
  bash perfbench/run.sh --workload "$w" --seed 0 --seconds 3 --trace 0 >"$TMP/$w.out"
  last=$(tail -n 1 "$TMP/$w.out")
  printf '%s\n' "$last" >"$OUT/perfbench-$w.json"
  case "$last" in
  *'"correct":true,'*'"failed":0,'*) ;;
  *)
    echo "FAIL: perfbench $w did not run clean: $last" >&2
    exit 1
    ;;
  esac
  echo "OK: perfbench $w correct, 0 failed"
done

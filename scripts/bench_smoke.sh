#!/usr/bin/env bash
# Observatory smoke: record a quick-suite bench entry with the real
# binary, prove the entry's non-timing fields are reproducible, and
# pin the regression gate's exit-code contract deterministically
# (self-vs-self is 0; an impossibly fast baseline trips it; --warn-only
# makes it advisory). Legacy-file migration rides along.
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

echo "-- record the quick suite (2 timing runs)"
"$BIN" bench --suite quick --runs 2 --seed 1 --out "$tmp/a.json"
grep -q '"ftcg_bench": 1' "$tmp/a.json"
grep -q '"suite": "quick"' "$tmp/a.json"

echo "-- non-timing fields are reproducible across recordings"
"$BIN" bench --suite quick --runs 2 --seed 1 --out "$tmp/b.json" 2> /dev/null
for f in a b; do
    grep -oE '"(id|suite|key|unit|lower_is_better)": ?[^,}]*' "$tmp/$f.json" \
        > "$tmp/$f.shape"
    grep '"spec"' "$tmp/$f.json" >> "$tmp/$f.shape"
done
cmp "$tmp/a.shape" "$tmp/b.shape"
echo "   ids, measurement keys/units/directions, and specs identical"

echo "-- self-compare is exactly zero delta (exit 0)"
"$BIN" bench compare "$tmp/a.json" "$tmp/a.json" > /dev/null

echo "-- kernels suite records the fused measurement group"
"$BIN" bench --suite kernels --runs 2 --seed 1 --out "$tmp/k.json"
for key in kernels.sweep_separate_ns_per_iter kernels.sweep_fused_ns_per_iter \
           kernels.sweep_fused_speedup kernels.probe_two_pass_ns_per_nnz \
           kernels.probe_fused_ns_per_nnz kernels.probe_fused_speedup \
           kernels.short_rows_csr_ns_per_nnz kernels.short_rows_probe_ns_per_nnz \
           kernels.short_rows_probe_ordered_ns_per_nnz; do
    grep -q "\"$key\"" "$tmp/k.json" || {
        echo "error: $key missing from kernels entry" >&2
        exit 1
    }
done
"$BIN" bench compare "$tmp/k.json" "$tmp/k.json" > /dev/null
echo "   fused and short-row keys present; self-compare exit 0"

echo "-- migrate a legacy hand-written file to the schema"
cat > "$tmp/legacy.json" <<'EOF'
{
  "date": "2026-01-01",
  "pr": 1,
  "label": "synthetic impossibly-fast baseline",
  "host": {"cores": 1},
  "campaign_throughput": {
    "suite": "synthetic",
    "total_jobs": 24,
    "threads": 1,
    "elapsed_secs": 0.000001,
    "reps_per_sec": 1000000000.0
  }
}
EOF
"$BIN" bench migrate "$tmp/legacy.json" --out "$tmp/fast.json"
grep -q '"ftcg_bench": 1' "$tmp/fast.json"

echo "-- a real entry vs the impossibly fast baseline must trip the gate"
rc=0
"$BIN" bench compare "$tmp/a.json" "$tmp/fast.json" > /dev/null 2>&1 || rc=$?
if [ "$rc" != 1 ]; then
    echo "error: expected exit 1 from the regression gate, got $rc" >&2
    exit 1
fi
echo "   gate tripped with exit 1"

echo "-- --warn-only downgrades the same regression to advisory (exit 0)"
"$BIN" bench compare "$tmp/a.json" "$tmp/fast.json" --warn-only > /dev/null

echo "-- bench --against gates a fresh run and still appends to --out"
"$BIN" bench --suite quick --runs 1 --seed 1 \
    --against "$tmp/a.json" --warn-only --out "$tmp/a.json" > /dev/null
entries="$(grep -c '"suite": "quick"' "$tmp/a.json")"
if [ "$entries" != 2 ]; then
    echo "error: expected 2 entries after append, got $entries" >&2
    exit 1
fi
echo "   baseline file now holds $entries entries"

echo "bench observatory smoke passed."

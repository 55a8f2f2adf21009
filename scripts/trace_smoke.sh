#!/usr/bin/env bash
# Telemetry smoke: a traced campaign must (a) leave the JSONL/CSV
# artifacts byte-identical to an untraced run, (b) produce a canonical
# event trace that is byte-identical across thread counts, and
# (c) reconcile with its journal under `ftcg report`.
# Usage: scripts/trace_smoke.sh [path-to-ftcg-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

BIN="${1:-target/release/ftcg}"
if [ ! -x "$BIN" ]; then
    echo "error: $BIN not built (run cargo build --release first)" >&2
    exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cat > "$tmp/smoke.campaign" <<'EOF'
name     = trace-smoke
seed     = 13
reps     = 4
matrices = poisson2d:12
schemes  = detection, correction
alphas   = 0, 1/16
EOF

echo "-- untraced reference (2 threads)"
"$BIN" campaign --spec "$tmp/smoke.campaign" --threads 2 --quiet \
    --out "$tmp/plain.jsonl" --csv "$tmp/plain.csv"

echo "-- traced run (2 threads): telemetry must not perturb the artifacts"
"$BIN" campaign --spec "$tmp/smoke.campaign" --threads 2 --quiet \
    --journal "$tmp/run.jsonl" \
    --trace "$tmp/run.trace.jsonl" --metrics "$tmp/run.metrics.jsonl" \
    --out "$tmp/traced.jsonl" --csv "$tmp/traced.csv"

cmp "$tmp/plain.jsonl" "$tmp/traced.jsonl"
cmp "$tmp/plain.csv" "$tmp/traced.csv"
echo "   artifacts byte-identical with telemetry on"

echo "-- traced run again (1 thread): the canonical trace must not change"
"$BIN" campaign --spec "$tmp/smoke.campaign" --threads 1 --quiet \
    --journal "$tmp/run1.jsonl" --trace "$tmp/run1.trace.jsonl" --out /dev/null

cmp "$tmp/run.trace.jsonl" "$tmp/run1.trace.jsonl"
echo "   trace byte-identical across 2 vs 1 threads"

echo "-- ftcg report: fold trace + metrics and reconcile against the journal"
"$BIN" report "$tmp/run.trace.jsonl" "$tmp/run.metrics.jsonl" "$tmp/run.jsonl" \
    --spec "$tmp/smoke.campaign" > "$tmp/report.txt"
grep -q "Protocol events" "$tmp/report.txt"
grep -q "Phase wall time" "$tmp/report.txt"
grep -q "poisson2d:12" "$tmp/report.txt"
echo "   report rendered and reconciled (exit 0 means 0 mismatches)"

# The report must count exactly the journal's job records: 16 jobs
# across 4 configurations of 4 reps each.
jobs_in_report="$(awk '/^Protocol events/{f=1;next} /^$/{f=0} f && !/^config/ {s+=$(NF-7)} END{print s}' "$tmp/report.txt")"
records_in_journal="$(($(wc -l < "$tmp/run.jsonl") - 1))"
if [ "$jobs_in_report" != "$records_in_journal" ]; then
    echo "error: report counts $jobs_in_report traced jobs but the journal has $records_in_journal records" >&2
    exit 1
fi
echo "   report job totals match the journal ($records_in_journal records)"

echo "-- observatory sections: quantiles + protocol analytics tables"
grep -q "Phase duration quantiles" "$tmp/report.txt"
grep -q "Detection latency" "$tmp/report.txt"
grep -q "Rollback waste" "$tmp/report.txt"
grep -q "Empirical fault pressure" "$tmp/report.txt"
echo "   all four analytics sections rendered"

echo "-- storm spec: rollbacks restore the pristine matrix, counts are pinned"
# alpha = 1/8 keeps all three schemes rolling back. Every rollback
# re-reads the matrix from the input, so a sub-tolerance matrix fault
# cannot ride a checkpoint into a re-detection loop (which reads 2 and
# 1572 here). The totals are deterministic.
cat > "$tmp/storm.campaign" <<'EOF'
name     = trace-smoke-storm
seed     = 29
reps     = 4
matrices = paper:2213:32
schemes  = detection, correction, online
alphas   = 1/8
EOF
"$BIN" campaign --spec "$tmp/storm.campaign" --threads 2 --quiet \
    --trace "$tmp/storm.trace.jsonl" --out /dev/null
"$BIN" report "$tmp/storm.trace.jsonl" --spec "$tmp/storm.campaign" > "$tmp/storm.txt"
storm_totals="$(awk '/^Rollback waste/{f=1;next} /^$/{f=0} f && !/^config/ {e+=$(NF-3); w+=$(NF-2)} END{print e, w}' "$tmp/storm.txt")"
if [ "$storm_totals" != "0 909" ]; then
    echo "error: storm spec reports (escalations, wasted iters) = ($storm_totals), want (0 909)" >&2
    exit 1
fi
echo "   3 schemes x 4 reps at alpha 1/8: 0 escalations, 909 wasted iterations"

echo "-- perfetto timeline export"
"$BIN" report "$tmp/run.trace.jsonl" "$tmp/run.metrics.jsonl" \
    --perfetto "$tmp/timeline.json" > /dev/null
grep -q '"traceEvents"' "$tmp/timeline.json"
grep -q 'process_name' "$tmp/timeline.json"
grep -q '"ph":"X"' "$tmp/timeline.json"
echo "   timeline written with metadata and duration spans"

echo "-- kill mid-run, resume: sidecar duplicates must dedupe last-wins"
"$BIN" campaign --spec "$tmp/smoke.campaign" --threads 1 --quiet --resume \
    --journal "$tmp/kr.jsonl" --trace "$tmp/kr.trace.jsonl" \
    --metrics "$tmp/kr.metrics.jsonl" --out /dev/null
# Simulate the kill: the journal keeps its manifest plus 4 records and
# a torn 5th; the trace keeps the jobs the journal knows about plus two
# more (a trace block is durable *before* its journal record); the
# sidecar keeps those same 6 job lines plus a torn 7th. The resumed run
# therefore re-executes jobs 4 and 5 and re-appends their sidecar
# lines — exactly the duplicate-line case the loader must last-wins.
head -n 5 "$tmp/kr.jsonl" > "$tmp/kr.jsonl.cut" \
    && printf '{"job":4,"el' >> "$tmp/kr.jsonl.cut" \
    && mv "$tmp/kr.jsonl.cut" "$tmp/kr.jsonl"
awk 'NR==1 || /"job":[0-5],/' "$tmp/kr.trace.jsonl" > "$tmp/kr.trace.jsonl.cut" \
    && mv "$tmp/kr.trace.jsonl.cut" "$tmp/kr.trace.jsonl"
head -n 7 "$tmp/kr.metrics.jsonl" > "$tmp/kr.metrics.jsonl.cut" \
    && printf '{"job":6,"ns":{"st' >> "$tmp/kr.metrics.jsonl.cut" \
    && mv "$tmp/kr.metrics.jsonl.cut" "$tmp/kr.metrics.jsonl"
"$BIN" campaign --spec "$tmp/smoke.campaign" --threads 2 --quiet --resume \
    --journal "$tmp/kr.jsonl" --trace "$tmp/kr.trace.jsonl" \
    --metrics "$tmp/kr.metrics.jsonl" --out "$tmp/kr.out.jsonl"

cmp "$tmp/plain.jsonl" "$tmp/kr.out.jsonl"
cmp "$tmp/run.trace.jsonl" "$tmp/kr.trace.jsonl"
echo "   resumed artifacts and trace byte-identical to the clean run"

for job in 4 5; do
    n="$(grep -c "\"job\":$job," "$tmp/kr.metrics.jsonl")"
    if [ "$n" -lt 2 ]; then
        echo "error: expected a duplicate sidecar line for re-run job $job (got $n)" >&2
        exit 1
    fi
done
echo "   re-run jobs left duplicate sidecar lines"

"$BIN" report "$tmp/kr.trace.jsonl" "$tmp/kr.metrics.jsonl" "$tmp/kr.jsonl" \
    --spec "$tmp/smoke.campaign" > "$tmp/kr.report.txt"
kr_jobs="$(awk '/^Protocol events/{f=1;next} /^$/{f=0} f && !/^config/ {s+=$(NF-7)} END{print s}' "$tmp/kr.report.txt")"
if [ "$kr_jobs" != "$records_in_journal" ]; then
    echo "error: resumed report counts $kr_jobs jobs, want $records_in_journal (duplicates not deduped?)" >&2
    exit 1
fi
echo "   resumed report dedupes to $kr_jobs jobs (last occurrence wins)"

# The trace-only report (protocol events + analytics, no wall-clock
# sections) must be byte-identical between the clean and resumed runs.
"$BIN" report "$tmp/run.trace.jsonl" --spec "$tmp/smoke.campaign" > "$tmp/clean.tr.txt"
"$BIN" report "$tmp/kr.trace.jsonl" --spec "$tmp/smoke.campaign" > "$tmp/kr.tr.txt"
cmp "$tmp/clean.tr.txt" "$tmp/kr.tr.txt"
echo "   trace-only analytics byte-identical across the resume boundary"

echo "trace/report smoke passed."

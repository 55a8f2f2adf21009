#!/usr/bin/env bash
# Benchmark-of-record smoke: the standalone `benchmark/` package is not a
# workspace member, so nothing else in CI compiles it. Build it against
# the workspace's crates (a crate API change that breaks it fails here,
# not at the driver's gate), then run its `--quick` self-check: tiny
# sizes, every workload, every named metric, every correctness digest.
#
# Usage: scripts/benchmark_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml

cores="$(nproc)"
if [ "$cores" -lt 2 ]; then
    echo "benchmark smoke: built; --quick skipped (campaign_t2 refuses a $cores-core host)"
    exit 0
fi
bash benchmark/run.sh --quick

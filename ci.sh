#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite.
# Usage: ./ci.sh [--no-clippy] [--no-fmt]
set -euo pipefail
cd "$(dirname "$0")"

run_fmt=1
run_clippy=1
for arg in "$@"; do
    case "$arg" in
        --no-fmt) run_fmt=0 ;;
        --no-clippy) run_clippy=0 ;;
        *) echo "unknown flag $arg" >&2; exit 2 ;;
    esac
done

if [ "$run_fmt" = 1 ]; then
    echo "==> cargo fmt --check"
    cargo fmt --all --check
fi

if [ "$run_clippy" = 1 ]; then
    if cargo clippy --version >/dev/null 2>&1; then
        echo "==> cargo clippy -- -D warnings"
        cargo clippy --workspace --all-targets -- -D warnings
    else
        echo "==> clippy not installed; skipping"
    fi
fi

echo "==> one planner (only crates/model/src scans eq. 6; everything else calls ftcg_model::plan)"
if grep -rnE 'optimal_(abft|online)_interval\(' crates/*/src | grep -v '^crates/model/src/'; then
    echo "an eq. 6 scan outside ftcg-model (above): call ftcg_model::plan instead" >&2
    exit 1
fi

echo "==> rustdoc (-D warnings: a link to a deleted or private item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --exclude proptest

echo "==> cargo build --release"
cargo build --release

echo "==> ftcg-lint (workspace invariant rules + waiver staleness, blocking)"
target/release/ftcg-lint

echo "==> lint smoke (seeded violations must fail with the right rule IDs)"
bash scripts/lint_smoke.sh target/release/ftcg-lint

echo "==> cargo test -q"
cargo test -q

echo "==> allocation gate (release; counting-allocator proof of zero steady-state allocs)"
cargo test -q --release -p ftcg-solvers --test alloc_gate

echo "==> kernel bit-exactness suites (release: the codegen that ships, bounds checks elided)"
cargo test -q --release -p ftcg-sparse -p ftcg-kernels

echo "==> shard → merge → diff smoke (byte-identical campaign artifacts)"
bash scripts/shard_smoke.sh target/release/ftcg

echo "==> trace → report smoke (deterministic telemetry, journal reconciliation)"
bash scripts/trace_smoke.sh target/release/ftcg

echo "==> bench observatory smoke (deterministic compare exits on schema fixtures)"
bash scripts/bench_smoke.sh target/release/ftcg

echo "==> benchmark of record: build + --quick (blocking)"
bash scripts/benchmark_smoke.sh

echo "==> bench record: import what --quick wrote, then self-compare (skipped with it on one core)"
if [ "$(nproc)" -ge 2 ]; then
    rm -f bench-ci.json
    target/release/ftcg bench record benchmark/out/latest.json --out bench-ci.json
    target/release/ftcg bench compare bench-ci.json bench-ci.json > /dev/null
fi

echo "CI gate passed."

#!/usr/bin/env bash
# CI gate: formatting, lints, release build, full test suite. The one
# definition of the gate: .github/workflows/ci.yml runs this script.
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
    # Clippy carries every static rule (README "Static analysis"), so a
    # missing clippy fails the gate; --no-clippy is the explicit opt-out.
    if ! cargo clippy --version >/dev/null 2>&1; then
        echo "clippy is not installed (rustup component add clippy), or pass --no-clippy" >&2
        exit 1
    fi
    echo "==> cargo clippy -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
fi

echo "==> one planner (only crates/model/src scans eq. 6; everything else calls ftcg_model::plan)"
if grep -rnE 'optimal_(abft|online)_interval\(' src crates/*/src | grep -v '^crates/model/src/'; then
    echo "an eq. 6 scan outside ftcg-model (above): call ftcg_model::plan instead" >&2
    exit 1
fi

echo "==> one clamp (only crates/sparse/src/csr.rs clamps a row range; everything else calls row_range_clamped)"
if grep -rnE '\.min\(nnz\)' src crates/*/src | grep -v '^crates/sparse/src/csr.rs:'; then
    echo "a row-range clamp outside csr.rs (above): call CsrMatrix::row_range_clamped instead" >&2
    exit 1
fi

echo "==> one product direction (only crates/sparse/src/csr.rs names a transpose product; the benchmark's probe is its only caller)"
if grep -rn 'spmv_transpose' src crates/*/src | grep -v '^crates/sparse/src/csr.rs:'; then
    echo "a transpose product outside csr.rs (above): the protected solvers run the forward product only" >&2
    exit 1
fi

echo "==> rustdoc (-D warnings: a link to a deleted or private item fails)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --exclude proptest

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> allocation gate (release; counting-allocator proof of zero steady-state allocs)"
cargo test -q --release -p ftcg-solvers --test alloc_gate

echo "==> kernel and ABFT bit-exactness suites (release: the codegen that ships, bounds checks elided)"
cargo test -q --release -p ftcg-sparse -p ftcg-kernels -p ftcg-abft

echo "==> protocol and paper-matrix pins (release, including the published-order cases debug builds skip)"
cargo test -q --release -p ftcg --test protocol_pin -- --include-ignored
cargo test -q --release -p ftcg-sim --test paper_matrices -- --include-ignored

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

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

echo "==> std concurrency (no source file uses crossbeam or parking_lot; std::thread::scope and std::sync::Mutex instead)"
if grep -rnE 'crossbeam::|parking_lot::' src crates/*/src; then
    echo "a crossbeam or parking_lot path in a source file (above): use std::thread::scope / std::sync instead" >&2
    exit 1
fi

echo "==> one solver (CG, the paper's Algorithm 1: no solver axis, no solver trait, no PCG)"
if grep -rnE 'SolverKind|IterativeSolver|PcgMachine|pcg_jacobi|axpy2_precond_dot' src crates/*/src tests; then
    echo "a second-solver name (above): the solver is CgMachine; PCG comes back only with a fault target and a check for its z vector and a benchmark workload that runs it" >&2
    exit 1
fi

echo "==> no fault-simulation shadows (the executor keeps no TMR replicas: it votes the iteration's recorded flips)"
if grep -rn 'TmrVector' crates/solvers/src; then
    echo "a TMR replica vector in the solvers (above): record the fault as a ftcg_abft::tmr::ReplicaFlip and vote with vote_flips instead" >&2
    exit 1
fi

echo "==> one fault-model recipe, one checkpoint buffer (ftcg-fault's InjectorSpec + Injector::new choose the model; the cost triple lives with the planner)"
if grep -rnE 'InjectorConfig|FaultRate|calibrated_injector' crates src tests; then
    echo "a removed fault-model recipe (above): build injectors with ftcg_fault::Injector::new(InjectorSpec, a, alpha, seed)" >&2
    exit 1
fi
if grep -rnE 'enum InjectorSpec\b' crates src tests | grep -v '^crates/fault/src/'; then
    echo "a second InjectorSpec (above): the fault-model choice is defined once, in crates/fault/src; re-export it" >&2
    exit 1
fi
if grep -rnE '(struct|enum|type) ResilienceCosts\b' crates/checkpoint/src; then
    echo "ResilienceCosts defined in ftcg-checkpoint (above): the cost triple lives with the planner, in crates/model/src/cost.rs" >&2
    exit 1
fi
if grep -rnE '\[SolverState; *[0-9]' crates/checkpoint/src; then
    echo "an array of checkpoint buffers (above): the slot keeps the one live checkpoint in one buffer" >&2
    exit 1
fi

echo "==> ROADMAP item numbers stay in ROADMAP.md (they change when it is rewritten; say what the item stands for)"
if grep -rlzP 'ROADMAP(\.md)?,?(\s|//[/!]?|#)*item\s+[0-9]' src crates README.md; then
    echo "a ROADMAP item number in the files above (a line break between the two words counts): state the fact it stands for instead" >&2
    exit 1
fi

echo "==> one JSON idiom (serde::json::Value renders and parses every format; the four unused vendor crates stay empty placeholders)"
if grep -rnE 'Serialize|Deserialize|serde_derive' src crates/*/src vendor/serde/src; then
    echo "a serde trait or derive (above): build a serde::json::Value and render it with Display instead" >&2
    exit 1
fi
if grep -nv '^//!' vendor/{crossbeam,parking_lot,bytes,serde_derive}/src/lib.rs; then
    echo "code in a placeholder vendor crate (above): nothing compiles against it; its lib.rs holds //! lines only" >&2
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

echo "==> protocol, paper-matrix and planner pins (release, including the published-order cases and the dense planner grid debug builds skip)"
cargo test -q --release -p ftcg --test protocol_pin -- --include-ignored
cargo test -q --release -p ftcg-sim --test paper_matrices -- --include-ignored
cargo test -q --release -p ftcg-model --lib -- --include-ignored

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

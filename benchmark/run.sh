#!/usr/bin/env bash
# The one command of the ftcg benchmark of record (see README.md here).
#
#   benchmark/run.sh [--seed N]            every workload, untraced and
#                                          traced, checked and tabulated;
#                                          writes benchmark/out/latest.json
#   benchmark/run.sh --check-repeat        two full sets; every end-to-end
#                                          metric must agree within its bound
#   benchmark/run.sh --quick               tiny sizes, < 20 s: every named
#                                          metric present on every workload
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                          one run; last stdout line is JSON
#
# Builds the benchmark package (offline, release) first. Build time is
# printed, never counted in a metric.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "run.sh: no Cargo.toml / crates/ next to benchmark/: the benchmark builds the repository's crates from source" >&2
    exit 3
fi

# Path dependencies are compiled under the benchmark's own profile, so
# it must equal the root's or this measures a different program.
release_profile() {
    awk '/^\[profile\.release\]/ { on = 1; next }
         /^\[/                   { on = 0 }
         on && NF && $0 !~ /^[[:space:]]*#/ { gsub(/[[:space:]]/, ""); print }' "$1" | sort
}
if [ "$(release_profile Cargo.toml)" != "$(release_profile benchmark/Cargo.toml)" ]; then
    echo "run.sh: [profile.release] of benchmark/Cargo.toml differs from the root manifest's:" >&2
    diff <(release_profile Cargo.toml) <(release_profile benchmark/Cargo.toml) >&2 || true
    exit 3
fi

target="${CARGO_TARGET_DIR:-benchmark/target}"
started=$(date +%s%N)
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
build_ms=$(( ($(date +%s%N) - started) / 1000000 ))
printf 'build: %d.%03d s (not counted)\n' $((build_ms / 1000)) $((build_ms % 1000)) >&2

FTCG_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
FTCG_BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export FTCG_BENCH_RUSTC FTCG_BENCH_COMMIT
exec "$target/release/ftcg-benchmark" "$@"

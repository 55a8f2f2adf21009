#!/usr/bin/env bash
# Paired benchmark of two commits on one workload: the protocol behind a
# speed claim. Each commit is checked out as a detached git worktree and
# its benchmark built before the first timed run. Pair k runs
# `benchmark/run.sh --workload WORKLOAD --seed k` (the benchmark's own
# run length) on both commits back to back: BASE first in odd pairs, NEW
# first in even ones. Then `ftcg bench record` turns each side's saved
# stdouts into one recording and `ftcg bench compare` judges NEW against
# BASE; its exit code is this script's (0 same or better, 1 worse or a
# rising failed share, 2 could not compare).
#
# The run outputs and both recordings stay in target/pair/W-BASE-NEW/;
# the worktrees are removed on exit.
#
# Usage: scripts/pair.sh BASE NEW WORKLOAD PAIRS
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 4 ] || ! [[ "$4" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: scripts/pair.sh BASE NEW WORKLOAD PAIRS" >&2
    exit 2
fi
workload="$3" pairs="$4"
base="$(git rev-parse --short "$1^{commit}")"
new="$(git rev-parse --short "$2^{commit}")"
# Each checkout builds into its own benchmark/target.
unset CARGO_TARGET_DIR

out="target/pair/$workload-$base-$new"
rm -rf "$out"
mkdir -p "$out"
trees="$(mktemp -d)"
cleanup() {
    git worktree remove --force "$trees/base" 2>/dev/null || true
    git worktree remove --force "$trees/new" 2>/dev/null || true
    rm -rf "$trees"
    git worktree prune
}
trap cleanup EXIT

cargo build --release --offline --quiet --bin ftcg
for side in base new; do
    git worktree add --quiet --detach "$trees/$side" "${!side}"
    echo "building the benchmark of $side (${!side})" >&2
    cargo build --release --offline --quiet --manifest-path "$trees/$side/benchmark/Cargo.toml"
done

# run SIDE K: one timed run; a failure stops the script and names it.
run() {
    local rc=0
    bash "$trees/$1/benchmark/run.sh" --workload "$workload" --seed "$2" \
        > "$out/$1.$2.txt" 2> "$out/$1.$2.err" || rc=$?
    if [ "$rc" != 0 ]; then
        echo "error: pair $2, $1 (${!1}, seed $2) exited $rc; see $out/$1.$2.txt and .err" >&2
        exit 1
    fi
}
for k in $(seq 1 "$pairs"); do
    if [ $((k % 2)) = 1 ]; then
        run base "$k"
        run new "$k"
    else
        run new "$k"
        run base "$k"
    fi
    echo "pair $k/$pairs done" >&2
done

for side in base new; do
    runs=()
    for k in $(seq 1 "$pairs"); do runs+=("$out/$side.$k.txt"); done
    target/release/ftcg bench record "${runs[@]}" --out "$out/$side.json" \
        --label "$workload, $side of $base..$new"
done
echo "run outputs and recordings: $out" >&2
rc=0
target/release/ftcg bench compare "$out/new.json" "$out/base.json" || rc=$?
exit "$rc"

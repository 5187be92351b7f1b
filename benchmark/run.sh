#!/usr/bin/env bash
# Entry point of the repo benchmark: build the benchmark (release,
# offline) against the repo's crates, then run it from the repo root.
#
#   benchmark/run.sh [--seed S] [--workload W] [--seconds T] [--label L]
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#   benchmark/run.sh compare A B
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# The benchmark is its own cargo workspace, so its [profile.release] is
# the one in force for every crate it builds. Refuse to measure if it has
# drifted from the profile users build with.
profile() {
    awk '/^\[profile\.release\]/ {on = 1; next} /^\[/ {on = 0} on && NF && !/^#/' "$1" | sort
}
if [ ! -f Cargo.toml ]; then
    echo "benchmark/run.sh: no Cargo.toml in $root: the benchmark builds the repository's crates from source" >&2
    exit 2
fi
if [ "$(profile Cargo.toml)" != "$(profile benchmark/Cargo.toml)" ]; then
    echo "benchmark/run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml:" >&2
    diff <(profile Cargo.toml) <(profile benchmark/Cargo.toml) >&2 || true
    exit 2
fi

# Cargo names every symbol of a path dependency outside the workspace
# root after the dependency's absolute path, and thin LTO compiles the
# crates differently with other names: built straight from
# benchmark/Cargo.toml, the same source parses JSON 1.6x slower in one
# checkout directory than in another. So the measured binary is built in a generated workspace,
# benchmark/.ws, that sees the repository as the root workspace does —
# crates/ and vendor/ beneath it (links), the workspace tables and the
# release profile taken from the root manifest — with this package as its
# one named member. Every package is then named by its path relative to
# that root, as in a user's build, and the code is byte for byte the same
# wherever the checkout lies.
ws=benchmark/.ws
rm -rf "$ws"
mkdir -p "$ws/bench"
ln -s ../../crates "$ws/crates"
ln -s ../../vendor "$ws/vendor"
ln -s ../../src "$ws/bench/src"
awk '/^\[/ {on = /^\[(workspace|profile)[.\]]/} on' Cargo.toml |
    sed 's/^members = .*/members = ["bench"]/' >"$ws/Cargo.toml"
awk '/^\[/ {on = !/^\[(workspace|profile)[.\]]/} on' benchmark/Cargo.toml >"$ws/bench/Cargo.toml"
cp benchmark/Cargo.lock "$ws/Cargo.lock"
if [ "$(grep -c '^members = \["bench"\]$' "$ws/Cargo.toml")" != 1 ]; then
    echo "benchmark/run.sh: could not rewrite the members of the root [workspace] (one line expected)" >&2
    exit 2
fi

# A relative CARGO_TARGET_DIR is relative to where cargo is invoked: here.
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$ws/Cargo.toml" >&2

exec "$target/release/aq-benchmark" "$@"

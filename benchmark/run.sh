#!/usr/bin/env bash
# Builds the benchmark in release and runs it; every argument goes to the
# binary (see README.md). Run from anywhere: paths resolve against this
# file. Builds offline — every dependency is a path crate of the repo.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# Cargo puts the binary under CARGO_TARGET_DIR when that is set (relative
# to where cargo was called from), else under the package's own target/.
target="${CARGO_TARGET_DIR:-$here/target}"

export BENCH_OUT="$here/out"
export BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo nogit)"
exec "$target/release/semitri-ladder" "$@"

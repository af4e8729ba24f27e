#!/usr/bin/env bash
# The command `BENCHMARK.json` names: builds the benchmark when a source under
# `crates/` is newer than the binary (or there is none yet), then runs the
# binary with the arguments given. Run it from the repository root.
#
# It is not `cargo run`, because `cargo run` rebuilds on every call in a
# checkout that is not a git repository: `crates/serve/build.rs` asks cargo to
# re-run it when `.git/HEAD` changes, cargo counts a missing file as changed,
# and the fat-LTO link that follows takes longer than a 20-second run.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
crates=$(cd "$here/../../../.." && pwd)
# Cargo reads a relative CARGO_TARGET_DIR against the working directory,
# and so does the benchmark for its scratch files.
bin=${CARGO_TARGET_DIR:-$here/target}/release/gmh-benchmark

stale() {
    [ ! -x "$bin" ] && return 0
    [ -n "$(find "$crates" -name target -prune -o -type f -newer "$bin" -print -quit)" ]
}

if stale; then
    cargo build --release --quiet --offline --manifest-path "$here/Cargo.toml" >&2
fi
exec "$bin" "$@"

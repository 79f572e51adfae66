#!/usr/bin/env bash
# Builds the `mochy-serve` release binary and the benchmark from this
# checkout, then runs the benchmark against that binary. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload cold-count --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default `target`).
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/serve || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the repository root (crates/serve and Cargo.toml are missing)" >&2
    exit 2
fi
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p mochy_serve --bin mochy-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --server "$target/release/mochy-serve" "$@"

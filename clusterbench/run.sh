#!/usr/bin/env bash
# Builds the cluster binaries and the benchmark from source, then runs
# one benchmark invocation. Run it from the root of a repository
# checkout:
#
#   bash clusterbench/run.sh --workload ingest|keyed|recover --seed N \
#       --seconds N --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build). The
# result is the last line of standard output; progress goes to stderr.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/ms-wire || ! -f clusterbench/Cargo.toml ]]; then
    echo "clusterbench: run from the root of a repository checkout" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ms-wire --bin ms-controller --bin ms-worker >&2
cargo build --release --offline --quiet --manifest-path clusterbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/clusterbench" --bin-dir "$CARGO_TARGET_DIR/release" "$@"

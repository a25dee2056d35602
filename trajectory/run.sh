#!/usr/bin/env bash
# Build the product server and the benchmark into one target directory,
# then run the benchmark with the given arguments. Run from anywhere;
# everything is resolved against the repository root (this file's parent).
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p epilog-server --bin epilog-server >&2
cargo build --release --offline --quiet --manifest-path trajectory/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/trajectory" "$@"

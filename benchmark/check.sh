#!/usr/bin/env bash
# Offline gate for the benchmark package alone: the repository's ci.sh does
# not know this directory, and this script touches nothing outside it.
set -euo pipefail
cd "$(dirname "$0")"

echo "== hermetic manifest: only poi360-* path dependencies =="
bad=$(awk '
    /^\[(dev-|build-)?dependencies/ { deps = 1; next }
    /^\[/ { deps = 0 }
    deps && /^[a-zA-Z0-9_-]+ *=/ && !/^poi360-[a-z]+ *= *\{ *path *= *"\.\.\/crates\/[a-z]+" *\}$/ { print }
' Cargo.toml)
if [ -n "$bad" ]; then
    echo "non-hermetic dependency entries:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --offline --all-targets -- -D warnings

echo "== harness self-tests =="
cargo test --offline -q

echo "== smoke run (1 rep, tenth-length workloads) =="
cargo run --release --offline -q -- --smoke >/dev/null

echo "== metric lines survive a closed pipe =="
cargo run --release --offline -q -- --smoke | head -n 1 >/dev/null

echo "ok"

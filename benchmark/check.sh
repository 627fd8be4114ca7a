#!/usr/bin/env bash
# Self-tests, formatting and lints of the benchmark package. The root CI
# does not cover a crate that is not a workspace member.
set -euo pipefail
cd "$(dirname "$0")"
cargo fmt --check
cargo clippy --release --offline --all-targets -- -D warnings
# --release: the tests drive the built executable, and a debug build of the
# simulator is many times slower.
cargo test --release --offline

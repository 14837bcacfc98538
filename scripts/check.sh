#!/usr/bin/env bash
# The full local gate, exactly as CI runs it: formatting, lints, tests.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q

echo "== worker-determinism suites under --verify-heap gc"
# Verification is observation, not participation: the same bit-identity
# suites must pass with a full integrity pass after every collection
# (DESIGN.md §18). The env var flips every session/drive in both suites.
POLM2_VERIFY_HEAP=gc cargo test -q -p polm2-gc --test worker_determinism
POLM2_VERIFY_HEAP=gc cargo test -q -p polm2-core --test gc_worker_determinism

echo "all checks passed"

#!/usr/bin/env bash
# Local CI gate: formatting, lints, tests, and the access-discipline
# lint over the application crates. Mirrors .github/workflows/ci.yml.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> stamp_lint"
cargo run -q -p bench --bin stamp_lint

echo "==> ablation_cm --smoke"
cargo run -q --release -p bench --bin ablation_cm -- --smoke

echo "==> schedfuzz --smoke"
cargo run -q --release -p bench --bin schedfuzz -- --smoke

echo "==> schedfuzz --golden --check"
cargo run -q --release -p bench --bin schedfuzz -- --golden --check

echo "==> chaos --smoke"
cargo run -q --release -p bench --bin chaos -- --smoke

echo "==> table4 --smoke"
cargo run -q --release -p bench --bin table4 -- --smoke

echo "==> table4 --check"
cargo run -q --release -p bench --bin table4 -- --check

echo "==> perfbench tests"
cargo test -q --release --manifest-path perfbench/Cargo.toml

echo "check.sh: all gates passed"

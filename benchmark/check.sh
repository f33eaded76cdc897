#!/usr/bin/env bash
# The benchmark's own checks: build, unit tests (stats.rs against a
# sorted-vector reference, the oracle digests, the yardstick), one short
# round of every workload with the oracle on, and the self-test that a
# corrupted oracle is noticed.
set -euo pipefail
cd "$(dirname "$0")/.."

MANIFEST=benchmark/Cargo.toml
cargo build --release --offline --manifest-path "$MANIFEST"
cargo test --release --offline --manifest-path "$MANIFEST" --quiet
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/simspatial-benchmark"

echo "== smoke: one short round per workload, oracle on"
"$BIN" --smoke

echo "== self-test: a corrupted oracle must fail the run"
if out="$("$BIN" --smoke --corrupt-oracle)"; then
  echo "FAIL: --corrupt-oracle exited 0" >&2
  exit 1
fi
if ! grep -q '"correct": false' <<<"$out"; then
  echo "FAIL: --corrupt-oracle did not print \"correct\": false" >&2
  exit 1
fi
echo "ok: corrupted oracle caught ($(tail -n 1 <<<"$out" | cut -c1-60)...)"

#!/usr/bin/env bash
# Simulated-clock snapshot: build the release CLI and write the hero
# shape's output checksum and simulated kernel times (µs) as JSON.
#
#   scripts/bench_snapshot.sh [--out FILE] [extra `spinfer snapshot` args]
#
# Every value is printed in round-trip form, so equal text means equal
# f64 bits. CI regenerates the snapshot and compares it with the
# committed BENCH_kernels.json:
#
#   ./scripts/bench_snapshot.sh --out /tmp/snap.json && diff -u BENCH_kernels.json /tmp/snap.json
#
# Any difference means a simulated result moved: fix the change, or
# regenerate BENCH_kernels.json on purpose and say why. Host wall-clock
# is not recorded here; perfbench/ measures it with paired runs.
#
# The CLI is built with the explicit-SIMD MAC panels (`gpu-sim/simd`);
# results are bit-identical to the scalar build (pinned in
# tests/simd_equiv.rs).
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_kernels.json
if [ "${1:-}" = "--out" ]; then
  OUT="$2"
  shift 2
fi

cargo build --release -p spinfer-bench --bin spinfer --features gpu-sim/simd
./target/release/spinfer snapshot --out "$OUT" "$@"
echo "--- $OUT ---"
cat "$OUT"

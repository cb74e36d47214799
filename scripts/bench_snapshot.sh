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
# The SIMD bodies are picked from the host CPU at runtime by one token,
# gpu_sim::cpu::Simd; results are bit-identical either way. CI's
# `portable` job runs this script under RUSTFLAGS="--cfg spinfer_portable"
# with its own CARGO_TARGET_DIR, which the binary path below follows.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT=BENCH_kernels.json
if [ "${1:-}" = "--out" ]; then
  OUT="$2"
  shift 2
fi

cargo build --release -p spinfer-bench --bin spinfer
"${CARGO_TARGET_DIR:-target}/release/spinfer" snapshot --out "$OUT" "$@"
echo "--- $OUT ---"
cat "$OUT"

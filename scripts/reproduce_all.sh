#!/usr/bin/env bash
# Regenerates every table and figure of the SpInfer reproduction
# (the artifact-style equivalent of the paper's benchmark.sh).
#
# Usage: scripts/reproduce_all.sh
# Outputs: plain-text tables to stdout, CSVs under results/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== building (release) =="
cargo build --release -p spinfer-bench

BINS=(fig01 fig02 fig03 fig04 fig10 fig11 fig12 table01 fig13 fig14 fig15 fig16 \
      ablation_design serving_sweep retarget)
mkdir -p results
for b in "${BINS[@]}"; do
    echo
    echo "================================================================"
    echo "== $b"
    echo "================================================================"
    cargo run --quiet --release -p spinfer-bench --bin "$b" | tee "results/$b.txt"
done

echo
echo "All outputs written to results/. Paper-vs-measured commentary lives"
echo "in EXPERIMENTS.md; the timing model is specified in docs/TIMING_MODEL.md."

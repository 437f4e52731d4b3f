#!/usr/bin/env bash
# Regenerates every experiment output (see EXPERIMENTS.md) into the directory
# given as the first argument, results/ by default. The binaries are
# bit-deterministic, and scripts/check.sh fails when results/ differs from
# what they print.
set -euo pipefail
cd "$(dirname "$0")"
out="${1:-results}"
mkdir -p "$out"
for bin in fig11 fig12 fig13 bounds fairness ablation expectation enduring partial distribution; do
    echo "== $bin =="
    cargo run --release -p isgc-bench --bin "$bin" --quiet | tee "$out/$bin.txt"
    echo
done
echo "All experiment outputs written to $out/."

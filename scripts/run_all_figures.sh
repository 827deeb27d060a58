#!/usr/bin/env bash
# Regenerates every figure/table/claim artifact of the FASE reproduction:
# each entry of the fase-bench `experiment` binary's table. CSV output
# lands in target/figures/. Every target runs even when an earlier one
# fails; the names of the failed ones are printed at the end, and the
# script then exits 1.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline -p fase-bench
mapfile -t targets < <(target/release/experiment)
failed=()
for name in "${targets[@]}"; do
  echo "==== $name ===="
  target/release/experiment "$name" || failed+=("$name")
done
if (( ${#failed[@]} )); then
  echo "failed: ${failed[*]}"
  exit 1
fi
echo "all ${#targets[@]} artifacts regenerated; CSVs in target/figures/"

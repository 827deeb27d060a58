#!/usr/bin/env bash
# Regenerates every figure/table/claim artifact of the FASE reproduction:
# each fase-bench binary under crates/bench/src/bin, and each entry of the
# `experiment` binary's table. CSV output lands in target/figures/.
# Every target runs even when an earlier one fails; the names of the
# failed ones are printed at the end, and the script then exits 1.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline -p fase-bench
targets=()
for src in crates/bench/src/bin/*.rs; do
  bin=$(basename "$src" .rs)
  [[ $bin == experiment ]] || targets+=("$bin")
done
while read -r name; do
  targets+=("experiment $name")
done < <(target/release/experiment)
failed=()
for target in "${targets[@]}"; do
  echo "==== $target ===="
  read -r -a cmd <<< "$target"
  "target/release/${cmd[0]}" "${cmd[@]:1}" || failed+=("${cmd[-1]}")
done
if (( ${#failed[@]} )); then
  echo "failed: ${failed[*]}"
  exit 1
fi
echo "all ${#targets[@]} artifacts regenerated; CSVs in target/figures/"

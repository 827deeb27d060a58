#!/usr/bin/env bash
# Digests of what every entry of the fase-bench `experiment` table
# prints: for each entry, in table order, its exit status, the sha256 of
# its stdout and the sha256 of every CSV it writes under target/figures/.
# Each entry runs in its own empty directory under WORK_DIR, which keeps
# that entry's files and its stdout (WORK_DIR/<name>.out) afterwards.
#
# Usage: scripts/figure_digests.sh [EXPERIMENT_BIN [WORK_DIR]]
#   (defaults: target/release/experiment, target/figure-digests)
#
# FIGURES.sha256 at the repository root is this script's output on the
# checked-in tree; scripts/ci.sh compares a fresh run with it at one and
# two capture workers. A change that means to alter an entry's output
# regenerates it and explains each changed entry in CHANGES.md:
#   cargo build --release --offline -p fase-bench
#   scripts/figure_digests.sh > FIGURES.sha256
set -euo pipefail
cd "$(dirname "$0")/.."
bin=$(realpath "${1:-target/release/experiment}")
work=${2:-target/figure-digests}
rm -rf "$work"
mkdir -p "$work"
work=$(realpath "$work")
names=$("$bin")
for name in $names; do
  mkdir "$work/$name"
  status=0
  (cd "$work/$name" && "$bin" "$name") > "$work/$name.out" 2> /dev/null || status=$?
  echo "$name exit $status"
  echo "$name stdout $(sha256sum < "$work/$name.out" | cut -d' ' -f1)"
  if [[ -d "$work/$name/target/figures" ]]; then
    (cd "$work/$name" && LC_ALL=C find target/figures -type f | LC_ALL=C sort) | while read -r csv; do
      echo "$name $csv $(sha256sum < "$work/$name/$csv" | cut -d' ' -f1)"
    done
  fi
done

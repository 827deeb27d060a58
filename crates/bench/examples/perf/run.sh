#!/usr/bin/env bash
# Runs two sets of ten untraced runs of all four workloads, then one
# traced run of each, and compares the two sets under the BENCHMARK.json
# bounds.
#
#   crates/bench/examples/perf/run.sh
#
# Set 1 uses seeds 31..40 and set 2 seeds 51..60; the workload order
# alternates from run to run so that slow drift of the machine does not
# always land on the same workload. Everything goes to target/perf/:
# set1.jsonl and set2.jsonl (stamp + result line of every run),
# trace.jsonl, and compare.txt.
set -euo pipefail

cd "$(dirname "$0")/../../../.."
runs=10
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
out=target/perf
mkdir -p "$out"

perf() {
    cargo run --offline --release --quiet \
        --manifest-path crates/bench/examples/perf/Cargo.toml -- "$@"
}

workloads=(campaign sweep_cold sweep_warm serve)
for set in 1 2; do
    : >"$out/set$set.jsonl"
    for ((r = 0; r < runs; r++)); do
        order=("${workloads[@]}")
        if (((set + r) % 2 == 0)); then
            order=(serve sweep_warm sweep_cold campaign)
        fi
        seed=$((11 + 20 * set + r))
        for w in "${order[@]}"; do
            echo "set $set run $r: $w seed $seed" >&2
            # A run whose checks failed still prints its result, which
            # the comparison counts; keep going.
            perf --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 |
                tail -n 2 >>"$out/set$set.jsonl" || echo "  exit status $?" >&2
        done
    done
done

: >"$out/trace.jsonl"
for w in "${workloads[@]}"; do
    echo "traced: $w" >&2
    perf --workload "$w" --seed 1 --seconds "$seconds" --trace 1 | tail -n 2 >>"$out/trace.jsonl"
done

perf compare "$out/set1.jsonl" "$out/set2.jsonl" | tee "$out/compare.txt"

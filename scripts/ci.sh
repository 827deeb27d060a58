#!/usr/bin/env bash
# Offline-safe CI gate: formatting, lints, release build, full test suite.
#
# Everything runs with --offline against the committed Cargo.lock — the
# workspace has no external dependencies, so no network is ever needed.
# Usage: scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."

# The base commit of the per-layer perf A/B stage below, taken before any
# build can touch the tree: on a pull-request run, the merge-base with the
# target branch; else HEAD when the work tree has uncommitted changes
# (those changes are what is tested); else HEAD~1 (a push, or a clean
# checkout, tests its last commit).
if [[ -n "${GITHUB_BASE_REF:-}" ]]; then
  ab_base=$(git merge-base HEAD "origin/$GITHUB_BASE_REF")
elif [[ -n "$(git status --porcelain)" ]]; then
  ab_base=$(git rev-parse HEAD)
else
  ab_base=$(git rev-parse HEAD~1)
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> fase-lint --strict (baseline-checked)"
cargo run -p fase-lint --offline -- --strict --quiet \
  --baseline lint-baseline.json --json target/fase-lint.json \
  || { echo "fase-lint findings or waiver-budget breach:"; cat target/fase-lint.json; exit 1; }
# Belt and braces: the concurrency/taint rules must be at zero even if the
# strict gate above is ever relaxed.
if grep -Eq '"(C-[a-z]+|D-taint)"' target/fase-lint.json; then
  echo "concurrency/taint findings present:"; cat target/fase-lint.json; exit 1
fi
# The whole-workspace analysis (lex, parse, graphs, taint) must stay fast
# enough to run on every keystroke-ish loop, not just CI.
wall_ms=$(sed -n 's/.*"wall_ms": \([0-9]*\).*/\1/p' target/fase-lint.json)
[[ -n "$wall_ms" && "$wall_ms" -lt 5000 ]] \
  || { echo "fase-lint strict run too slow: ${wall_ms:-unreported} ms (budget 5000)"; exit 1; }

echo "==> lint-graph (deterministic call/lock graph dump)"
cargo run -p fase-lint --offline -- graph --quiet --json target/fase-lint-graph.json
cargo run -p fase-lint --offline -- graph --quiet --json target/fase-lint-graph-2.json
cmp -s target/fase-lint-graph.json target/fase-lint-graph-2.json \
  || { echo "fase-lint graph JSON is not byte-stable across runs"; exit 1; }
rm -f target/fase-lint-graph-2.json

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

echo "==> examples (each builds and runs to a zero exit)"
# The root package's examples are the README's entry points, and the
# workspace test run only compiles them. Together they run in about a
# second.
cargo build --release --offline --examples
for src in examples/*.rs; do
  name=$(basename "$src" .rs)
  "target/release/examples/$name" > "target/example-$name.out" 2>&1 \
    || { echo "example $name failed:"; cat "target/example-$name.out"; exit 1; }
  echo "  $name: ok"
done

echo "==> benchmark package tests"
# crates/bench/examples/perf is a package of its own, outside the
# workspace, so the workspace test run never compiles it. Building and
# testing it here catches a public-API change that would break the
# benchmark before the benchmark itself runs.
cargo test --offline -q --manifest-path crates/bench/examples/perf/Cargo.toml

echo "==> figures (pinned digests at 1 and 2 workers, claim verdicts)"
# Every entry that the `experiment` binary lists runs twice, with one and
# with two capture workers, each in an empty directory: its exit status
# and the sha256 of its stdout and of every CSV it writes must equal
# FIGURES.sha256 line for line (scripts/figure_digests.sh says how to
# regenerate that file). That pins each figure's numbers, and through
# both runs the campaign pool's promise that output never depends on the
# worker count. Each entry's claim verdict (exit 0 and no ✗ line) is
# printed but not gated: a failing claim is a modelling result recorded
# in EXPERIMENTS.md.
for threads in 1 2; do
  FASE_THREADS=$threads scripts/figure_digests.sh target/release/experiment \
    "target/figures-ci/t$threads" > "target/figures-ci.t$threads.sha256"
  cmp -s FIGURES.sha256 "target/figures-ci.t$threads.sha256" || {
    echo "figure output at FASE_THREADS=$threads differs from FIGURES.sha256:"
    diff FIGURES.sha256 "target/figures-ci.t$threads.sha256" || true
    exit 1
  }
done
for name in $(target/release/experiment); do
  if grep -qx "$name exit 0" FIGURES.sha256 && ! grep -q '✗' "target/figures-ci/t1/$name.out"; then
    echo "  $name: claims hold"
  else
    echo "  $name: claim fails ($(grep "^$name exit " FIGURES.sha256 | cut -d' ' -f2-))"
  fi
done

echo "==> per-layer perf A/B gate (base build vs this tree, same host)"
# The benchmark package (crates/bench/examples/perf) is built twice: at a
# base commit, checked out in a git worktree under target/, and from this
# tree. Traced runs of both then alternate on this host, the same seeds
# on both sides and the side that goes first swapping from pair to pair,
# so the gate compares the change and not the machine. A per-layer
# metric whose median over the pairs is more than 20% worse than the
# base's fails. Each metric is gated on the workload that exercises it.
# serve runs 10 pairs, the others 5: on a 2-core host, serve's service
# time read 9.0-16.5 ms over ten runs of one build, a spread that lets
# five pairs fail an unchanged tree now and then.
# Every head campaign run must also read a dsp.plan_cache_hit_ratio of 1.
# For each workload the stage also prints whether the base and head
# stamps carry the same report_digest seed for seed, naming any seed
# whose report changed; that line is information, not a gate.
ab_dir=target/perf-ab
ab_tree=$ab_dir/base
git worktree remove --force "$ab_tree" 2>/dev/null || true
rm -rf "$ab_tree"
git worktree prune
mkdir -p "$ab_dir"
git worktree add --detach --quiet "$ab_tree" "$ab_base"
perf_pkg=crates/bench/examples/perf
cargo build --offline --release --quiet --manifest-path "$ab_tree/$perf_pkg/Cargo.toml"
cargo build --offline --release --quiet --manifest-path "$perf_pkg/Cargo.toml"
declare -A ab_bin=([base]="$ab_tree/$perf_pkg/target/release/perf"
  [head]="$perf_pkg/target/release/perf")
echo "base $(git rev-parse --short "$ab_base")"
# A traced serve run needs 25 s, or its tail percentiles lack samples and
# it exits 2; 5 s runs of the closed-loop workloads suffice. sweep_cold is
# the only many-band workload: it gates the capture layers of the sweep's
# capture pool.
declare -A ab_seconds=([campaign]=5 [sweep_cold]=5 [sweep_warm]=5 [serve]=25)
declare -A ab_npairs=([campaign]=5 [sweep_cold]=5 [sweep_warm]=5 [serve]=10)
declare -A ab_gates=(
  [campaign]="emsim.synth_ms dsp.transform_ms core.detect_ms specan.capture_self_ms"
  [sweep_cold]="emsim.synth_ms specan.capture_self_ms"
  [sweep_warm]="specan.cache_ms" [serve]="serve.service_ms")
# Median of metric $3 over side $1's runs of workload $2; a result line
# holds each metric as "name": {"value": v, "unit": u}.
ab_median() {
  grep -o "\"${3//./\\.}\": {\"value\": [-0-9.eE+]*" "$ab_dir/$1.$2.jsonl" \
    | sed 's/.* //' | sort -g \
    | awk '{ v[NR] = $1 } END { if (NR) print (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) / 2 }'
}
# The report digest in side $1's stamp line for workload $2, seed $3.
ab_digest() {
  sed -n "s/.*\"seed\": $3,.*\"report_digest\": \"\([^\"]*\)\".*/\1/p" "$ab_dir/$1.$2.stamps"
}
ab_ok=1
for w in campaign sweep_cold sweep_warm serve; do
  for side in base head; do
    : > "$ab_dir/$side.$w.jsonl"
    : > "$ab_dir/$side.$w.stamps"
  done
  for ((pair = 1; pair <= ab_npairs[$w]; pair++)); do
    sides=(base head)
    (( pair % 2 == 1 )) || sides=(head base)
    for side in "${sides[@]}"; do
      "${ab_bin[$side]}" --workload "$w" --seed "$pair" --seconds "${ab_seconds[$w]}" \
        --trace 1 > "$ab_dir/run.out"
      tail -n 1 "$ab_dir/run.out" >> "$ab_dir/$side.$w.jsonl"
      grep '^{"stamp"' "$ab_dir/run.out" >> "$ab_dir/$side.$w.stamps" || true
    done
  done
  # Output identity, printed and not gated: a change that fixes a
  # detector claim may change reports on purpose.
  differ=()
  for ((pair = 1; pair <= ab_npairs[$w]; pair++)); do
    base_digest=$(ab_digest base "$w" "$pair")
    head_digest=$(ab_digest head "$w" "$pair")
    [[ -n $base_digest && $base_digest == "$head_digest" ]] || differ+=("$pair")
  done
  if (( ${#differ[@]} )); then
    echo "  $w report_digest: base and head differ on seed(s) ${differ[*]} (not gated)"
  else
    echo "  $w report_digest: identical on seeds 1-${ab_npairs[$w]}"
  fi
  for m in ${ab_gates[$w]}; do
    base_med=$(ab_median base "$w" "$m")
    head_med=$(ab_median head "$w" "$m")
    verdict=$(awk -v b="$base_med" -v h="$head_med" 'BEGIN {
      printf("%s %+.1f%%", (b > 0 && h <= 1.2 * b) ? "ok" : "WORSE", (b > 0) ? (h / b - 1) * 100 : 0) }')
    echo "  $w $m: base ${base_med:-missing}, head ${head_med:-missing} ($verdict)"
    [[ $verdict == ok* ]] || ab_ok=0
  done
  # Every traced op runs after set-up, so a plan-cache miss in a head
  # campaign run means an FFT plan died with the capture pool's workers.
  if [[ $w == campaign ]]; then
    ratios=$(grep -o '"dsp\.plan_cache_hit_ratio": {"value": [-0-9.eE+]*' \
      "$ab_dir/head.$w.jsonl" | sed 's/.* //' | tr '\n' ' ')
    if [[ -n $ratios ]] && awk '{ for (i = 1; i <= NF; i++) if ($i != 1) exit 1 }' <<< "$ratios"; then
      echo "  campaign dsp.plan_cache_hit_ratio: 1 on every head run"
    else
      echo "  campaign dsp.plan_cache_hit_ratio: head runs read ${ratios:-nothing} (WORSE: must be 1)"
      ab_ok=0
    fi
  fi
done
git worktree remove --force "$ab_tree"
[[ $ab_ok -eq 1 ]] || { echo "a per-layer metric is >20% worse than the base build"; exit 1; }

echo "==> metrics export + schema validation"
# A small real campaign with observability on: the exported metrics JSON
# must validate against the checked-in schema (sorted keys, finite
# numbers, monotone span nesting). CI uploads target/metrics.json as an
# artifact for inspection.
cargo run -p fase-cli --offline --release -- \
  scan --system i7 --lo 300k --hi 330k --res 500 --falt 30k --fdelta 2k \
  --alts 3 --avg 1 --seed 5 --metrics-out target/metrics.json > /dev/null
cargo run -p fase-obs --offline --release --bin fase-obs-validate -- \
  target/metrics.json scripts/metrics.schema.json

echo "==> sweep cache reuse"
# The same two-band sweep twice against one cache directory: the first
# run must miss both bands and store them, the second must be served
# from the cache (both bands hit, none missed) and take at most a fifth
# of the cold run's sweep time. Both runs' metrics must validate against
# the schema.
rm -rf target/sweep-cache
sweep_args=(sweep --system i7 --lo 250k --hi 400k --res 500 --bands 2
  --overlap 2k --falt 30k --fdelta 2k --alts 3 --avg 1 --seed 5
  --cache-dir target/sweep-cache)
cargo run -p fase-cli --offline --release -- "${sweep_args[@]}" \
  --metrics-out target/sweep-cold-metrics.json > /dev/null
cargo run -p fase-cli --offline --release -- "${sweep_args[@]}" \
  --metrics-out target/sweep-metrics.json > /dev/null
for run in sweep-cold-metrics sweep-metrics; do
  cargo run -p fase-obs --offline --release --bin fase-obs-validate -- \
    "target/$run.json" scripts/metrics.schema.json
done
# One counter, or one span's total_ns, from an exported metrics file.
metric() { sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p" "$1"; }
span_ns() { sed -n "s/.*\"$2\": {.*\"total_ns\": \([0-9]*\) }.*/\1/p" "$1"; }
cold_hm="$(metric target/sweep-cold-metrics.json 'specan\.cache_hits')/$(metric target/sweep-cold-metrics.json 'specan\.cache_misses')"
warm_hm="$(metric target/sweep-metrics.json 'specan\.cache_hits')/$(metric target/sweep-metrics.json 'specan\.cache_misses')"
[[ $cold_hm == 0/2 && $warm_hm == 2/0 ]] \
  || { echo "cache hits/misses: cold $cold_hm (want 0/2), warm $warm_hm (want 2/0)"; exit 1; }
cold_ns=$(span_ns target/sweep-cold-metrics.json 'specan\.sweep')
warm_ns=$(span_ns target/sweep-metrics.json 'specan\.sweep')
[[ -n "$cold_ns" && -n "$warm_ns" ]] && (( cold_ns >= 5 * warm_ns )) \
  || { echo "warm sweep not 5x faster than cold: ${warm_ns:-?} vs ${cold_ns:-?} ns"; exit 1; }
echo "sweep: cold ${cold_ns} ns, warm ${warm_ns} ns"

echo "==> detection-quality benchmark (fused vs single-channel ROC)"
# The labeled scenario population through 3-channel fusion, four times:
# cold cache, warm cache, and at 1 and 4 threads against a fresh cache
# (the thread counts cover a pool leader analysing inline beside one,
# the default and four capture helpers).
# `--min-auc 0.9` fails the run when fused AUC drops below 0.9; here we
# additionally pin that the JSON (which carries no wall times) is
# byte-identical across cache temperature and thread count — the fusion
# analogue of the sweep scheduler's bit-identity promise. The cold run
# must also reproduce the checked-in BENCH_detection.json byte for byte;
# CI never writes that file.
detect_bench() {
  cargo run -q -p fase-cli --offline --release -- detect-bench --channels 3 \
    --min-auc 0.9 --cache-dir target/detect-cache --out "$1" >> target/detect-bench.log
}
rm -rf target/detect-cache
: > target/detect-bench.log
detect_bench target/BENCH_detection.cold.json
detect_bench target/BENCH_detection.warm.json
cmp -s target/BENCH_detection.cold.json BENCH_detection.json \
  || { echo "detection JSON differs from the checked-in BENCH_detection.json"; exit 1; }
cmp -s target/BENCH_detection.cold.json target/BENCH_detection.warm.json \
  || { echo "detection JSON differs between cold and warm cache runs"; exit 1; }
rm -rf target/detect-cache
for threads in 1 4; do
  FASE_THREADS=$threads detect_bench "target/BENCH_detection.t$threads.json"
  cmp -s target/BENCH_detection.cold.json "target/BENCH_detection.t$threads.json" \
    || { echo "detection JSON differs at FASE_THREADS=$threads"; exit 1; }
  rm -rf target/detect-cache
done
# The fused detector must dominate the single-channel baseline in the
# artifact CI uploads.
fused_auc=$(sed -n 's/.*"fused_auc": \([0-9.]*\).*/\1/p' target/BENCH_detection.cold.json)
single_auc=$(sed -n 's/.*"single_auc": \([0-9.]*\).*/\1/p' target/BENCH_detection.cold.json)
[[ -n "$fused_auc" && -n "$single_auc" ]] \
  || { echo "BENCH_detection.cold.json lacks AUC fields"; exit 1; }
awk "BEGIN { exit !($fused_auc >= $single_auc && $fused_auc >= 0.9) }" \
  || { echo "fused AUC $fused_auc must be >= single-channel AUC $single_auc and >= 0.9"; exit 1; }
echo "detection: fused AUC $fused_auc vs single-channel AUC $single_auc"

echo "==> serve smoke (seeded load twice, warm speedup, clean drain)"
# Start the detection service on an OS-assigned port and fire the same
# small deterministic multi-tenant load at it twice: the first run fills
# the cache, the second is served from it. Both runs must answer every
# request without errors, under a generous p99 bound, and the warm run's
# p50 must be at most half the cold run's. Each run sends 32 requests
# per tenant, so each p50 is the median of 64 latencies (with 2 requests
# a run, the verdict flipped on an unchanged tree). The second run then
# drains: the server must exit cleanly on its own. A load with another
# seed goes first, so the process-wide memos and FFT plans are warm
# before the cold run and the speedup measures the capture cache alone.
rm -f target/serve.port target/serve.log
rm -rf target/serve-cache
cargo run -p fase-cli --offline --release -- \
  serve --addr 127.0.0.1:0 --workers 2 --cache-dir target/serve-cache \
  --run-ms 120000 --port-file target/serve.port > target/serve.log &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  [[ -s target/serve.port ]] && break
  sleep 0.1
done
[[ -s target/serve.port ]] \
  || { echo "server never wrote its port file"; cat target/serve.log; exit 1; }
load_args=(load --addr "$(cat target/serve.port)" --tenants 2 --requests 32
  --concurrency 4 --max-p99-ms 60000 --json)
cargo run -p fase-cli --offline --release -- "${load_args[@]}" --seed 8 > /dev/null
cargo run -p fase-cli --offline --release -- "${load_args[@]}" --seed 7 > target/serve-load-cold.json
cargo run -p fase-cli --offline --release -- "${load_args[@]}" --seed 7 --drain \
  > target/serve-load.json
# One number from a load report's JSON.
load_field() { sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p" "$1"; }
for run in serve-load-cold serve-load; do
  report=target/$run.json
  sent=$(load_field "$report" sent)
  answered=$(( $(load_field "$report" ok) + $(load_field "$report" degraded) ))
  grep -q '"errors":0' "$report" && [[ -n "$sent" && $sent -gt 0 && $answered -eq $sent ]] \
    || { echo "serve load run had errors or unanswered requests:"; cat "$report"; exit 1; }
done
cold_p50=$(load_field target/serve-load-cold.json p50_ms)
warm_p50=$(load_field target/serve-load.json p50_ms)
awk -v c="$cold_p50" -v w="$warm_p50" 'BEGIN { exit !(c > 0 && w <= c / 2) }' \
  || { echo "warm serve p50 ${warm_p50} ms is not at most half the cold ${cold_p50} ms"; exit 1; }
echo "serve: p50 cold ${cold_p50} ms, warm ${warm_p50} ms"
wait "$serve_pid"
trap - EXIT
grep -q "drained cleanly" target/serve.log \
  || { echo "server did not drain cleanly:"; cat target/serve.log; exit 1; }

# Extended fault matrix: every impairment class at every alternation
# index, across worker thread counts (~1 min). Opt in because it dwarfs
# the rest of the suite; CI's fault-matrix job sets it. --release reuses
# the artifacts the build step above just produced instead of paying for
# a second (debug) compile of the whole workspace.
if [[ "${FASE_FAULT_MATRIX:-}" == "full" ]]; then
  echo "==> fault matrix (FASE_FAULT_MATRIX=full)"
  cargo test --offline --release -q -p fase-specan --test fault_matrix
fi

echo "CI OK"

#!/bin/sh
# Runs every figure/table bench binary, collects its CSV output, and writes
# a machine-readable BENCH_timings.json with per-bench wall-clock seconds.
#
# Usage: tools/run_benches.sh [build_dir] [out_dir]
#   build_dir  where the bench binaries live (default: build)
#   out_dir    where CSVs, logs and BENCH_timings.json go
#              (default: <build_dir>/bench_out)
#
# Respects HARMONY_THREADS (the parallel runtime's worker count); results
# are identical at any thread count — only the timings change.
set -eu

BUILD_DIR=${1:-build}
OUT_DIR=${2:-"$BUILD_DIR/bench_out"}

if [ ! -d "$BUILD_DIR/bench" ]; then
  echo "error: $BUILD_DIR/bench not found (build the project first)" >&2
  exit 1
fi

mkdir -p "$OUT_DIR"
HARMONY_BENCH_CSV_DIR=$OUT_DIR
export HARMONY_BENCH_CSV_DIR

BENCHES="fig4_perf_distribution fig5_sensitivity_synth fig6_topn_synth \
fig7_history_distance fig8_sensitivity_web fig9_topn_web \
table1_search_refinement table2_prior_histories appb_param_restriction \
headline_combined ablation_estimator ablation_baselines \
ablation_classifiers ablation_factorial websim_events_per_sec \
history_scale persistence_throughput tuning_throughput incremental_fit \
serving_throughput strategy_tournament"

# Benches report metrics on marker lines: `<PREFIX><key> <value>`, or
# `EVENTS_PER_SEC <key> <value>` for throughput. Each row below maps a
# marker prefix to the section of the bench's JSON entry its pairs land in;
# sections appear in this order, and only when the log holds such markers.
MARKERS='EVENTS_PER_SEC events_per_sec
SPECULATION_ speculation
FAULT_TOLERANCE_ fault_tolerance
SIMD_ simd
PERSIST_ persistence
SERVE_ serving
INCFIT_ incremental_fit
HISTORY_BATCH_ history_batch
TOURNAMENT_ tournament'

# Prints `, "<section>": {"<key>": <value>, ...}` for every marker prefix
# that occurs in log $1. Non-numeric values are quoted as JSON strings.
scrape_markers() {
  printf '%s\n' "$MARKERS" | while read -r prefix section; do
    pairs=$(awk -v p="$prefix" 'index($0, p) == 1 {
              split(substr($0, length(p) + 1), f, " ");
              if (n++) printf ", ";
              if (f[2] ~ /^[0-9.eE+-]+$/) printf "\"%s\": %s", f[1], f[2];
              else printf "\"%s\": \"%s\"", f[1], f[2]
            }' "$1")
    if [ -n "$pairs" ]; then printf ', "%s": {%s}' "$section" "$pairs"; fi
  done
}

JSON="$OUT_DIR/BENCH_timings.json"
threads=${HARMONY_THREADS:-auto}
total_start=$(date +%s%N)

{
  printf '{\n'
  printf '  "harmony_threads": "%s",\n' "$threads"
  printf '  "benches": {\n'
} > "$JSON"

first=1
failures=0
for b in $BENCHES; do
  bin="$BUILD_DIR/bench/$b"
  if [ ! -x "$bin" ]; then
    # A bench listed here but not built means the build is incomplete or a
    # target was renamed without updating this list — fail loudly rather
    # than silently producing a partial BENCH_timings.json.
    echo "error: $b not built (expected $bin)" >&2
    failures=$((failures + 1))
    [ $first -eq 1 ] || printf ',\n' >> "$JSON"
    first=0
    printf '    "%s": {"seconds": 0, "status": "missing"}' "$b" >> "$JSON"
    continue
  fi
  printf '%-28s ' "$b"
  start=$(date +%s%N)
  if "$bin" > "$OUT_DIR/$b.log" 2>&1; then
    status=ok
  else
    status=failed
    failures=$((failures + 1))
  fi
  end=$(date +%s%N)
  secs=$(awk "BEGIN { printf \"%.3f\", ($end - $start) / 1e9 }")
  echo "$status  ${secs}s"
  [ $first -eq 1 ] || printf ',\n' >> "$JSON"
  first=0
  extra=$(scrape_markers "$OUT_DIR/$b.log")
  printf '    "%s": {"seconds": %s, "status": "%s"%s}' \
    "$b" "$secs" "$status" "$extra" >> "$JSON"
done

total_end=$(date +%s%N)
total_secs=$(awk "BEGIN { printf \"%.3f\", ($total_end - $total_start) / 1e9 }")
{
  printf '\n  },\n'
  printf '  "total_seconds": %s\n' "$total_secs"
  printf '}\n'
} >> "$JSON"

echo "total: ${total_secs}s"
echo "wrote $JSON (CSVs and logs in $OUT_DIR)"
[ $failures -eq 0 ] || { echo "$failures bench(es) failed" >&2; exit 1; }

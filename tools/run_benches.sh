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
  # Benches report throughput on EVENTS_PER_SEC <name> <rate> marker lines,
  # strategy-tournament cells on TOURNAMENT_<key> <value> lines,
  # speculation metrics on SPECULATION_<key> <value> lines, fault-path
  # metrics on FAULT_TOLERANCE_<key> <value> lines, SIMD kernel speedups on
  # SIMD_<key> <value> lines, DES queue-backend comparisons on
  # DES_<key> <value> lines and durable-store metrics on PERSIST_<key>
  # <value> lines, serving-front-end metrics on SERVE_<key> <value>
  # lines, delta-aware refit metrics on INCFIT_<key> <value> lines and
  # batched-classify metrics on HISTORY_BATCH_<key> <value> lines; fold
  # any such markers into the bench's JSON entry.
  rates=$(awk '/^EVENTS_PER_SEC / {
                 if (n++) printf ", ";
                 printf "\"%s\": %s", $2, $3
               }' "$OUT_DIR/$b.log")
  spec=$(awk '/^SPECULATION_/ {
                key = substr($1, length("SPECULATION_") + 1);
                if (n++) printf ", ";
                printf "\"%s\": %s", key, $2
              }' "$OUT_DIR/$b.log")
  fault=$(awk '/^FAULT_TOLERANCE_/ {
                 key = substr($1, length("FAULT_TOLERANCE_") + 1);
                 if (n++) printf ", ";
                 printf "\"%s\": %s", key, $2
               }' "$OUT_DIR/$b.log")
  simd=$(awk '/^SIMD_/ {
                key = substr($1, length("SIMD_") + 1);
                if (n++) printf ", ";
                if ($2 ~ /^[0-9.eE+-]+$/) printf "\"%s\": %s", key, $2;
                else printf "\"%s\": \"%s\"", key, $2
              }' "$OUT_DIR/$b.log")
  des=$(awk '/^DES_/ {
               key = substr($1, length("DES_") + 1);
               if (n++) printf ", ";
               printf "\"%s\": %s", key, $2
             }' "$OUT_DIR/$b.log")
  persist=$(awk '/^PERSIST_/ {
                   key = substr($1, length("PERSIST_") + 1);
                   if (n++) printf ", ";
                   printf "\"%s\": %s", key, $2
                 }' "$OUT_DIR/$b.log")
  serve=$(awk '/^SERVE_/ {
                 key = substr($1, length("SERVE_") + 1);
                 if (n++) printf ", ";
                 printf "\"%s\": %s", key, $2
               }' "$OUT_DIR/$b.log")
  incfit=$(awk '/^INCFIT_/ {
                  key = substr($1, length("INCFIT_") + 1);
                  if (n++) printf ", ";
                  printf "\"%s\": %s", key, $2
                }' "$OUT_DIR/$b.log")
  hbatch=$(awk '/^HISTORY_BATCH_/ {
                  key = substr($1, length("HISTORY_BATCH_") + 1);
                  if (n++) printf ", ";
                  printf "\"%s\": %s", key, $2
                }' "$OUT_DIR/$b.log")
  tourn=$(awk '/^TOURNAMENT_/ {
                 key = substr($1, length("TOURNAMENT_") + 1);
                 if (n++) printf ", ";
                 printf "\"%s\": %s", key, $2
               }' "$OUT_DIR/$b.log")
  extra=""
  [ -n "$rates" ] && extra="$extra, \"events_per_sec\": {$rates}"
  [ -n "$spec" ] && extra="$extra, \"speculation\": {$spec}"
  [ -n "$fault" ] && extra="$extra, \"fault_tolerance\": {$fault}"
  [ -n "$simd" ] && extra="$extra, \"simd\": {$simd}"
  [ -n "$des" ] && extra="$extra, \"des\": {$des}"
  [ -n "$persist" ] && extra="$extra, \"persistence\": {$persist}"
  [ -n "$serve" ] && extra="$extra, \"serving\": {$serve}"
  [ -n "$incfit" ] && extra="$extra, \"incremental_fit\": {$incfit}"
  [ -n "$hbatch" ] && extra="$extra, \"history_batch\": {$hbatch}"
  [ -n "$tourn" ] && extra="$extra, \"tournament\": {$tourn}"
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

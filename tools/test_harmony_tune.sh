#!/bin/sh
# Smoke test for the harmony_tune CLI: tunes a shell one-liner with a known
# optimum (x = 12) and checks the cold run finds it and a warm run reuses
# the recorded history. Also drives the client mode (--connect) against a
# live harmony_serve and checks it reproduces the in-process result exactly.
# Usage: test_harmony_tune.sh <path-to-harmony_tune> <path-to-harmony_serve>
set -eu

TUNE="$1"
SERVE="$2"
DIR=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$DIR"' EXIT

start_daemon() {
  : > "$DIR/serve.out"
  "$SERVE" --port 0 "$@" > "$DIR/serve.out" 2> "$DIR/serve.err" &
  SERVE_PID=$!
  i=0
  while [ $i -lt 100 ]; do
    PORT=$(sed -n 's/^listening on .*:\([0-9][0-9]*\)$/\1/p' "$DIR/serve.out")
    [ -n "$PORT" ] && return 0
    sleep 0.1
    i=$((i + 1))
  done
  echo "FAIL: daemon never reported its port"; cat "$DIR/serve.err"; exit 1
}

stop_daemon() {
  kill -TERM "$SERVE_PID"
  set +e
  wait "$SERVE_PID"
  status=$?
  set -e
  [ "$status" -eq 0 ] || {
    echo "FAIL: daemon exited $status on SIGTERM"; exit 1; }
}

cat > "$DIR/params.rsl" <<'RSL'
{ harmonyBundle x { int {1 24 1 3} } }
RSL

cat > "$DIR/app.sh" <<'APP'
#!/bin/sh
awk "BEGIN { print 100 - ($HARMONY_x - 12)^2 }"
APP
chmod +x "$DIR/app.sh"

cold=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
       --history "$DIR/h.db" --trace "$DIR/trace.csv" -- "$DIR/app.sh")
echo "cold: $cold"
echo "$cold" | grep -q "x=12" || { echo "FAIL: cold run missed optimum"; exit 1; }

[ -s "$DIR/h.db" ] || { echo "FAIL: history not written"; exit 1; }
head -1 "$DIR/trace.csv" | grep -q "iteration,performance,x" || {
  echo "FAIL: trace header wrong"; exit 1; }

warm=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
       --history "$DIR/h.db" -- "$DIR/app.sh")
echo "warm: $warm"
echo "$warm" | grep -q "x=12" || { echo "FAIL: warm run missed optimum"; exit 1; }

# Speculative multi-threaded run: same optimum, measurements overlapped.
spec=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet --threads 2 \
       -- "$DIR/app.sh")
echo "spec: $spec"
echo "$spec" | grep -q "x=12" || {
  echo "FAIL: --threads 2 run missed optimum"; exit 1; }

# The objective is deterministic, so the speculative trajectory must report
# exactly the serial cold run's result line (same best, runs, stop reason).
nohist=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet -- "$DIR/app.sh")
[ "$spec" = "$nohist" ] || {
  echo "FAIL: --threads 2 diverged from the serial run";
  echo "  serial: $nohist"; echo "  spec:   $spec"; exit 1; }

# --- search kernels --------------------------------------------------------
# The pluggable kernels behind --strategy: each must find the optimum, and
# the deterministic objective makes the speculative --threads 8 trajectory
# reproduce the serial result line bit for bit (the SearchStrategy
# contract: threads change when measurements happen, never which values
# the search consumes).
for kernel in ils evolutionary; do
  kserial=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
            --strategy "$kernel" -- "$DIR/app.sh")
  echo "$kernel: $kserial"
  echo "$kserial" | grep -q "x=12" || {
    echo "FAIL: --strategy $kernel missed optimum"; exit 1; }
  kthreads=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
             --strategy "$kernel" --threads 8 -- "$DIR/app.sh")
  [ "$kthreads" = "$kserial" ] || {
    echo "FAIL: --strategy $kernel --threads 8 diverged from serial";
    echo "  serial:  $kserial"; echo "  threads: $kthreads"; exit 1; }
done
ils_serial=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
             --strategy ils -- "$DIR/app.sh")

"$TUNE" --rsl "$DIR/params.rsl" --strategy gradient -- "$DIR/app.sh" \
    2>/dev/null && {
  echo "FAIL: unknown --strategy must be rejected"; exit 1; }

cold_runs=$(echo "$cold" | sed 's/.*after \([0-9]*\) runs.*/\1/')
warm_runs=$(echo "$warm" | sed 's/.*after \([0-9]*\) runs.*/\1/')
[ "$warm_runs" -le "$cold_runs" ] || {
  echo "FAIL: warm run ($warm_runs) used more runs than cold ($cold_runs)";
  exit 1; }

# --- durable store ---------------------------------------------------------
# Same warm-start contract through the binary store: cold run appends to the
# log, warm run recovers it (replay or snapshot) and must not use more runs.
storecold=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
       --store "$DIR/store" -- "$DIR/app.sh")
echo "store cold: $storecold"
echo "$storecold" | grep -q "x=12" || {
  echo "FAIL: store cold run missed optimum"; exit 1; }
[ -s "$DIR/store.log" ] || { echo "FAIL: store log not written"; exit 1; }

storewarm=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
       --store "$DIR/store" -- "$DIR/app.sh")
echo "store warm: $storewarm"
echo "$storewarm" | grep -q "x=12" || {
  echo "FAIL: store warm run missed optimum"; exit 1; }
storewarm_runs=$(echo "$storewarm" | sed 's/.*after \([0-9]*\) runs.*/\1/')
[ "$storewarm_runs" -le "$cold_runs" ] || {
  echo "FAIL: store warm run ($storewarm_runs) used more runs than cold"; exit 1; }

# The binary store and the text history must warm-start identically: the
# recovered records are bit-identical, so the result lines must match.
[ "$storewarm" = "$warm" ] || {
  echo "FAIL: store warm run diverged from history warm run";
  echo "  history: $warm"; echo "  store:   $storewarm"; exit 1; }

"$TUNE" --rsl "$DIR/params.rsl" --store "$DIR/store" --history "$DIR/h.db" \
    -- "$DIR/app.sh" 2>/dev/null && {
  echo "FAIL: --store with --history must be rejected"; exit 1; }

# --- fault tolerance -------------------------------------------------------
# A deterministically flaky app: the first run for each configuration fails,
# every later run succeeds (marker files keyed by the configuration make
# this safe under concurrent measurements — each config touches its own
# file, and a retry of a config strictly follows its failed attempt).
cat > "$DIR/flaky.sh" <<APP
#!/bin/sh
marker="$DIR/seen_\$HARMONY_x"
if [ ! -e "\$marker" ]; then
  : > "\$marker"
  exit 7
fi
awk "BEGIN { print 100 - (\$HARMONY_x - 12)^2 }"
APP
chmod +x "$DIR/flaky.sh"

# Without --retries the first failure kills the run with a nonzero status.
set +e
"$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet \
        -- "$DIR/flaky.sh" 2> "$DIR/nofr.err"
nofr_status=$?
set -e
[ "$nofr_status" -ne 0 ] || {
  echo "FAIL: failing command did not fail the run"; exit 1; }
grep -q "command exited with status" "$DIR/nofr.err" || {
  echo "FAIL: failure reason not reported"; cat "$DIR/nofr.err"; exit 1; }

# With --retries 2 every fail-once configuration recovers; the run reaches
# the optimum, exits 0 and reports its retry accounting on stderr.
rm -f "$DIR"/seen_*
flaky=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --retries 2 \
        -- "$DIR/flaky.sh" 2> "$DIR/flaky.err")
echo "flaky: $flaky"
echo "$flaky" | grep -q "x=12" || {
  echo "FAIL: --retries run missed optimum"; exit 1; }
grep -q "retries:" "$DIR/flaky.err" || {
  echo "FAIL: retry summary missing"; cat "$DIR/flaky.err"; exit 1; }
grep -q " 0 exhausted" "$DIR/flaky.err" || {
  echo "FAIL: fail-once schedule should exhaust nothing";
  cat "$DIR/flaky.err"; exit 1; }

# Same flaky command under speculative concurrency: still recovers.
rm -f "$DIR"/seen_*
flaky8=$("$TUNE" --rsl "$DIR/params.rsl" --budget 40 --quiet --retries 2 \
         --threads 8 -- "$DIR/flaky.sh")
echo "flaky8: $flaky8"
echo "$flaky8" | grep -q "x=12" || {
  echo "FAIL: --retries --threads 8 run missed optimum"; exit 1; }

# A command that always fails: --retries keeps the run alive, every
# measurement is censored, and the exit code (3) says the result is not
# trustworthy.
cat > "$DIR/dead.sh" <<'APP'
#!/bin/sh
exit 7
APP
chmod +x "$DIR/dead.sh"
set +e
"$TUNE" --rsl "$DIR/params.rsl" --budget 10 --quiet --retries 1 \
        -- "$DIR/dead.sh" 2> "$DIR/dead.err"
dead_status=$?
set -e
[ "$dead_status" -eq 3 ] || {
  echo "FAIL: censored run should exit 3, got $dead_status";
  cat "$DIR/dead.err"; exit 1; }
grep -q "censored" "$DIR/dead.err" || {
  echo "FAIL: censoring not reported"; cat "$DIR/dead.err"; exit 1; }

# --timeout-ms: a hanging command is cut off and counted as a timeout.
cat > "$DIR/hang.sh" <<'APP'
#!/bin/sh
sleep 10
echo 1
APP
chmod +x "$DIR/hang.sh"
set +e
"$TUNE" --rsl "$DIR/params.rsl" --budget 10 --quiet --retries 0 \
        --timeout-ms 100 -- "$DIR/hang.sh" 2> "$DIR/hang.err"
hang_status=$?
set -e
[ "$hang_status" -eq 3 ] || {
  echo "FAIL: hanging command should exit 3, got $hang_status";
  cat "$DIR/hang.err"; exit 1; }
grep -q "retries:" "$DIR/hang.err" || {
  echo "FAIL: retry summary missing"; cat "$DIR/hang.err"; exit 1; }
if grep "retries:" "$DIR/hang.err" | grep -q "(0 timeouts"; then
  echo "FAIL: hang not classified as timeout"; cat "$DIR/hang.err"; exit 1
fi

# --- client mode -----------------------------------------------------------
# The daemon owns the search; harmony_tune only measures. A cold session
# against a non-recording daemon with the same budget must reproduce the
# in-process result line bit for bit, over both wire framings.
start_daemon --no-record --budget 40 --quiet
served=$("$TUNE" --rsl "$DIR/params.rsl" --quiet \
         --connect "127.0.0.1:$PORT" -- "$DIR/app.sh")
echo "served: $served"
[ "$served" = "$nohist" ] || {
  echo "FAIL: --connect diverged from the in-process run";
  echo "  in-process: $nohist"; echo "  served:     $served"; exit 1; }

servedbin=$("$TUNE" --rsl "$DIR/params.rsl" --quiet \
            --connect "127.0.0.1:$PORT" --binary -- "$DIR/app.sh")
[ "$servedbin" = "$nohist" ] || {
  echo "FAIL: --connect --binary diverged from the in-process run";
  echo "  in-process: $nohist"; echo "  binary:     $servedbin"; exit 1; }

# A kernel-name --strategy travels in the HELLO payload; the server runs
# that kernel and the client reproduces the in-process result bit for bit.
servedils=$("$TUNE" --rsl "$DIR/params.rsl" --quiet --strategy ils \
            --connect "127.0.0.1:$PORT" -- "$DIR/app.sh")
echo "served ils: $servedils"
[ "$servedils" = "$ils_serial" ] || {
  echo "FAIL: --connect --strategy ils diverged from the in-process run";
  echo "  in-process: $ils_serial"; echo "  served:     $servedils"; exit 1; }
stop_daemon

# A recording daemon warm-starts the second run from the first one's
# experience; the warm run must not need more measurements than the cold,
# and — the daemon's one record being the in-process cold run's trace, and
# both sides re-measuring seeds — must reproduce the in-process warm run
# over the same one-record history line for line.
start_daemon --budget 40 --quiet
svcold=$("$TUNE" --rsl "$DIR/params.rsl" --quiet \
         --connect "127.0.0.1:$PORT" -- "$DIR/app.sh")
# A client whose --signature has an arity the daemon's history does not
# share gets the ERROR and exits non-zero. Its session stores nothing, so
# the warm run below still sees only the cold run's record.
set +e
"$TUNE" --rsl "$DIR/params.rsl" --quiet --signature 0.5,0.5 \
    --connect "127.0.0.1:$PORT" -- "$DIR/app.sh" > /dev/null \
    2> "$DIR/arity.err"
arity_status=$?
set -e
[ "$arity_status" -ne 0 ] || {
  echo "FAIL: wrong-arity --signature should fail the client"; exit 1; }
grep -q "server error: signature arity mismatch$" "$DIR/arity.err" || {
  echo "FAIL: wrong-arity rejection not reported"; cat "$DIR/arity.err"
  exit 1; }
svwarm=$("$TUNE" --rsl "$DIR/params.rsl" \
         --connect "127.0.0.1:$PORT" -- "$DIR/app.sh" 2> "$DIR/warm.err")
echo "served warm: $svwarm"
grep -q "warm-started from experience" "$DIR/warm.err" || {
  echo "FAIL: recording daemon did not warm-start the second run";
  cat "$DIR/warm.err"; exit 1; }
svcold_runs=$(echo "$svcold" | sed 's/.*after \([0-9]*\) runs.*/\1/')
svwarm_runs=$(echo "$svwarm" | sed 's/.*after \([0-9]*\) runs.*/\1/')
[ "$svwarm_runs" -le "$svcold_runs" ] || {
  echo "FAIL: served warm run ($svwarm_runs) used more runs than cold"
  echo "($svcold_runs)"; exit 1; }
[ "$svwarm" = "$warm" ] || {
  echo "FAIL: served warm run diverged from the in-process warm run";
  echo "  in-process: $warm"; echo "  served:     $svwarm"; exit 1; }
stop_daemon

# Client mode delegates the search, so search-shaping flags are rejected.
# Kernel names are fine (they ride the HELLO payload), but the
# initial-simplex strategies configure the server side and are not.
"$TUNE" --rsl "$DIR/params.rsl" --connect "127.0.0.1:1" --budget 40 \
    -- "$DIR/app.sh" 2>/dev/null && {
  echo "FAIL: --connect with --budget must be rejected"; exit 1; }
"$TUNE" --rsl "$DIR/params.rsl" --connect "127.0.0.1:1" --strategy even \
    -- "$DIR/app.sh" 2>/dev/null && {
  echo "FAIL: --connect with --strategy even must be rejected"; exit 1; }

echo "OK (cold $cold_runs runs, warm $warm_runs runs, retries recover," \
     "client mode matches in-process)"

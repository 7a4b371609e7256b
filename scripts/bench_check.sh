#!/usr/bin/env bash
# Throughput trend check: run the throughput bench's smoke, which judges
# its own line against the committed BENCH_history.jsonl with
# flock_obs::dashboard::eval_gate and prints one `gate <rule>: <verdict>`
# line per rule. Exits 1 when the smoke fails (a missing or malformed
# history, or the timeout) or a verdict reads REGRESSION. Writes nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

log="$(mktemp -t flock-bench-XXXXXX.log)"
trap 'rm -f "$log"' EXIT
echo "==> cargo bench -p flock-bench --bench throughput -- --test"
status=0
timeout 900 cargo bench -p flock-bench --bench throughput -- --test 2>"$log" || status=$?
cat "$log" >&2
if [ "$status" -ne 0 ] || grep -q 'REGRESSION' "$log"; then
  echo "bench_check: FAILED (smoke exit status $status, or a REGRESSION verdict above)" >&2
  exit 1
fi
echo "bench_check: passed."

#!/usr/bin/env bash
# Throughput regression check: re-run the pipeline bench in --test (smoke)
# mode and compare the measured numbers against the *trend* in the
# committed BENCH_history.jsonl — the median of the last 3 recorded
# entries, so one noisy recording can neither hide nor fake a regression.
# Fails (exit 1) when a headline number regresses by more than 20%:
#
#   * search: measured indexed qps < 0.8 x median indexed_qps
#   * crawl:  measured expand_secs  > 1.2 x median expand_secs
#             (checked per worker count the smoke run covers: 1 and 4)
#   * memory: measured peak RSS (VmHWM of the smoke bench process) must
#             stay <= 1.2 x the median recorded peak_rss_bytes. The smoke
#             and full runs build the same small() world, so their peaks
#             are comparable; entries recorded before memory tracking
#             simply drop out of the median.
#   * monitor: a timeout-bounded long-horizon smoke (repro --monitor,
#             30 simulated days under rolling-outages, each round's checks
#             on 8 worker-pool threads) must complete, and
#             its checks/sec must stay >= 0.8 x the median recorded
#             checks_per_sec, with peak RSS <= 1.2 x the median.
#   * dashboard: repro --dashboard must render all four gated trend
#             charts (search qps, expand secs, monitor checks/sec, peak
#             RSS) from the committed history.
#
# Each trend gate needs a full 3-entry window of shape-matched history
# lines; with fewer it prints an explicit `SKIPPED (bootstrap)` line and
# skips only the history comparison — the smoke runs and their absolute
# assertions still gate.
#
# Smoke mode never appends to the committed history, so this is safe to
# run on every push. Wall-clock numbers are noisy on shared runners —
# ci.sh treats a failure here as a warning, and the CI workflow runs it in
# a separate advisory (continue-on-error) job.
set -euo pipefail
cd "$(dirname "$0")/.."

history="BENCH_history.jsonl"
if [ ! -f "$history" ]; then
  echo "bench_check: no committed $history; run 'cargo bench -p flock-bench --bench throughput' first" >&2
  exit 1
fi

window="$(mktemp -t flock-bench-window-XXXXXX)"
mwindow="$(mktemp -t flock-monitor-window-XXXXXX)"
log="$(mktemp -t flock-bench-XXXXXX.log)"
mlog="$(mktemp -t flock-monitor-XXXXXX.log)"
dash="$(mktemp -t flock-dash-XXXXXX.html)"
trap 'rm -f "$window" "$mwindow" "$log" "$mlog" "$dash"' EXIT
# Baseline window: the last 3 recorded *throughput-shaped* entries
# (newest last). The history also carries paper_scale and monitor entries
# with different shapes; selecting on a key the gates below read keeps
# them from occupying window slots.
grep '"indexed_qps"' "$history" | tail -n 3 >"$window" || true
window_count="$(wc -l <"$window")"
trend=1
if [ "$window_count" -lt 3 ]; then
  echo "bench_check: throughput trend gates SKIPPED (bootstrap): only ${window_count} throughput-shaped entries in ${history} (need 3)"
  trend=0
fi

# Median of newline-separated numbers on stdin (middle element; lower
# middle for an even count — the window is at most 3 entries anyway).
median() {
  sort -g | awk '{ v[NR] = $1 } END { if (NR == 0) exit 1; print v[int((NR + 1) / 2)] }'
}

if [ "$trend" -eq 1 ]; then
  # The history lines are compact serde JSON, so key:value adjacency is
  # stable and line-oriented extraction is reliable.
  base_qps="$(grep -o '"indexed_qps":[0-9.eE+-]*' "$window" | cut -d: -f2 | median)"
  if [ -z "$base_qps" ]; then
    echo "bench_check: could not parse the baseline qps median from $history" >&2
    exit 1
  fi
fi

echo "==> cargo bench -p flock-bench --bench throughput -- --test"
cargo bench -p flock-bench --bench throughput -- --test 2>"$log"
cat "$log" >&2

# Measured values from the bench's stderr lines:
#   search: indexed 5569 qps vs scan 123 qps (45.1x)
#   expand: workers=1 0.769s
measured_qps="$(awk '/^search: indexed/ { print $3; exit }' "$log")"
if [ -z "$measured_qps" ]; then
  echo "bench_check: could not parse search qps from bench output" >&2
  exit 1
fi

fail=0
if [ "$trend" -eq 1 ]; then
  if awk -v m="$measured_qps" -v b="$base_qps" 'BEGIN { exit !(m < 0.8 * b) }'; then
    echo "bench_check: SEARCH REGRESSION: measured ${measured_qps} qps < 80% of median ${base_qps} qps" >&2
    fail=1
  else
    echo "bench_check: search ok (${measured_qps} qps vs median ${base_qps} qps)"
  fi

  for w in 1 4; do
    measured_secs="$(awk -v w="$w" '$1 == "expand:" && $2 == "workers=" w { sub(/s$/, "", $3); print $3; exit }' "$log")"
    base_secs="$(grep -o "\"workers\":$w,\"expand_secs\":[0-9.eE+-]*" "$window" | cut -d: -f3 | median)"
    if [ -z "$measured_secs" ] || [ -z "$base_secs" ]; then
      echo "bench_check: could not parse expand timings for workers=$w" >&2
      exit 1
    fi
    if awk -v m="$measured_secs" -v b="$base_secs" 'BEGIN { exit !(m > 1.2 * b) }'; then
      echo "bench_check: CRAWL REGRESSION: workers=$w expand ${measured_secs}s > 120% of median ${base_secs}s" >&2
      fail=1
    else
      echo "bench_check: expand workers=$w ok (${measured_secs}s vs median ${base_secs}s)"
    fi
  done
fi

# Memory trend: compare the smoke run's peak RSS against the median of the
# recorded peak_rss_bytes. Entries recorded before memory tracking landed
# carry no mem block and contribute nothing to the median; until at least
# one entry has it, the gate is skipped (bootstrap).
measured_rss="$(awk '/^mem: peak rss/ { print $4; exit }' "$log")"
base_rss="$(grep -o '"peak_rss_bytes":[0-9]*' "$window" | cut -d: -f2 | median || true)"
if [ "$trend" -eq 0 ]; then
  echo "bench_check: memory trend gate SKIPPED (bootstrap): only ${window_count} throughput-shaped entries in ${history} (need 3)"
elif [ -z "$base_rss" ]; then
  echo "bench_check: no recorded peak_rss_bytes yet; skipping the memory gate"
elif [ -z "$measured_rss" ] || [ "$measured_rss" = "0" ]; then
  echo "bench_check: peak RSS unavailable on this host; skipping the memory gate"
elif awk -v m="$measured_rss" -v b="$base_rss" 'BEGIN { exit !(m > 1.2 * b) }'; then
  echo "bench_check: MEMORY REGRESSION: measured peak RSS ${measured_rss} bytes > 120% of median ${base_rss} bytes" >&2
  fail=1
else
  echo "bench_check: memory ok (peak RSS ${measured_rss} bytes vs median ${base_rss} bytes)"
fi

# Monitor long-horizon smoke: 30 simulated days of the continuous
# monitor under rolling-outages, hard-bounded by a 15-minute timeout so a
# virtual-clock hang fails loudly rather than wedging the job. The run
# itself is an absolute gate; the throughput/memory comparison against
# the recorded monitor entries is a median-of-3 trend gate like the ones
# above, with its own bootstrap skip while the history fills.
echo "==> repro --monitor --sim-days 30 --test (long-horizon smoke, timeout-bounded)"
if ! timeout 900 cargo run -q --release -p flock-repro -- \
  --monitor --scale small --seed 1234 --workers 8 \
  --chaos rolling-outages --sim-days 30 --test >/dev/null 2>"$mlog"; then
  cat "$mlog" >&2
  echo "bench_check: MONITOR SMOKE FAILED: repro --monitor did not complete within 900s" >&2
  exit 1
fi
cat "$mlog" >&2

# Measured values from the monitor's --test stderr lines:
#   monitor: 3567 checks in 0.10s (36456 checks/sec)
#   monitor: peak rss 105906176 bytes
measured_checks_rate="$(awk '/^monitor: .* checks\/sec\)$/ { gsub(/[()]/, "", $6); print $6; exit }' "$mlog")"
measured_mon_rss="$(awk '/^monitor: peak rss/ { print $4; exit }' "$mlog")"
if [ -z "$measured_checks_rate" ]; then
  echo "bench_check: could not parse checks/sec from monitor smoke output" >&2
  exit 1
fi

grep '"checks_per_sec"' "$history" | tail -n 3 >"$mwindow" || true
mwindow_count="$(wc -l <"$mwindow")"
if [ "$mwindow_count" -lt 3 ]; then
  echo "bench_check: monitor trend gate SKIPPED (bootstrap): only ${mwindow_count} monitor-shaped entries in ${history} (need 3)"
else
  base_checks_rate="$(grep -o '"checks_per_sec":[0-9.eE+-]*' "$mwindow" | cut -d: -f2 | median)"
  base_mon_rss="$(grep -o '"peak_rss_bytes":[0-9]*' "$mwindow" | cut -d: -f2 | median || true)"
  if [ -z "$base_checks_rate" ]; then
    echo "bench_check: could not parse baseline checks_per_sec median from $history" >&2
    exit 1
  fi
  if awk -v m="$measured_checks_rate" -v b="$base_checks_rate" 'BEGIN { exit !(m < 0.8 * b) }'; then
    echo "bench_check: MONITOR REGRESSION: measured ${measured_checks_rate} checks/sec < 80% of median ${base_checks_rate}" >&2
    fail=1
  else
    echo "bench_check: monitor ok (${measured_checks_rate} checks/sec vs median ${base_checks_rate})"
  fi
  if [ -z "$base_mon_rss" ]; then
    echo "bench_check: no recorded monitor peak_rss_bytes yet; skipping the monitor memory gate"
  elif [ -z "$measured_mon_rss" ] || [ "$measured_mon_rss" = "0" ]; then
    echo "bench_check: monitor peak RSS unavailable on this host; skipping the monitor memory gate"
  elif awk -v m="$measured_mon_rss" -v b="$base_mon_rss" 'BEGIN { exit !(m > 1.2 * b) }'; then
    echo "bench_check: MONITOR MEMORY REGRESSION: measured peak RSS ${measured_mon_rss} bytes > 120% of median ${base_mon_rss} bytes" >&2
    fail=1
  else
    echo "bench_check: monitor memory ok (peak RSS ${measured_mon_rss} bytes vs median ${base_mon_rss} bytes)"
  fi
fi

# Dashboard trend smoke: the run dashboard mirrors the gates above as
# SVG trend charts over the same shape-filtered history windows; all
# four gated series must render (a missing chart means the dashboard's
# view of the history diverged from this script's).
echo "==> repro --dashboard (trend chart smoke over $history)"
cargo run -q --release -p flock-repro -- \
  --scale small --seed 1234 --history "$history" --dashboard "$dash" \
  headline >/dev/null 2>&1
for key in search-qps expand-secs monitor-checks peak-rss; do
  if ! grep -q "trend-$key" "$dash"; then
    echo "bench_check: DASHBOARD SMOKE FAILED: missing trend chart trend-$key" >&2
    exit 1
  fi
done
echo "bench_check: dashboard trend charts ok (4 gated series rendered)"

if [ "$fail" -ne 0 ]; then
  echo "bench_check: FAILED (regression vs the $history trend)" >&2
  exit 1
fi
echo "bench_check: passed."

#!/usr/bin/env bash
# Monitor determinism matrix: the continuous-monitoring workload must
# render a byte-identical nodes list and report Data section at every
# seeds x threads cell, over 30 simulated days under the rolling-outages
# chaos plan (both outage waves lift inside the horizon, so the matrix
# exercises liveness, death AND rebirth detection). Threads are the
# worker-pool threads each round's checks run on (`--workers`).
#
# Shared by scripts/ci.sh (as one stage) and the dedicated
# monitor-determinism job in .github/workflows/ci.yml. Assumes the
# release profile is already built (it builds on demand otherwise).
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

scratch="$(mktemp -d -t flock-monitor-matrix-XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

for seed in 1 1234 9999; do
  for w in 1 2 8; do
    tag="mon-s$seed-w$w"
    cargo run -q --release -p flock-repro -- \
      --monitor --scale small --seed "$seed" --workers "$w" \
      --chaos rolling-outages --sim-days 30 \
      --nodes "$scratch/$tag.nodes" \
      --report "$scratch/$tag.report.txt" >/dev/null 2>&1
    test -s "$scratch/$tag.nodes"
    if ! cmp -s "$scratch/mon-s$seed-w1.nodes" "$scratch/$tag.nodes"; then
      echo "DETERMINISM FAILURE: seed $seed monitor nodes list (workers=$w) differs from workers=1" >&2
      exit 1
    fi
    data_fence report "$scratch/$tag.report.txt" >"$scratch/$tag.report.data"
    if ! cmp -s "$scratch/mon-s$seed-w1.report.data" "$scratch/$tag.report.data"; then
      echo "DETERMINISM FAILURE: seed $seed monitor report Data section (workers=$w) differs from workers=1" >&2
      exit 1
    fi
  done
  # The matrix is only meaningful if the chaos plan actually killed and
  # revived instances: demand at least one observed rebirth.
  if ! grep -Eq '^  rebirths: [1-9]' "$scratch/mon-s$seed-w1.report.data"; then
    echo "MONITOR FAILURE: seed $seed saw no instance rebirth under rolling-outages" >&2
    exit 1
  fi
  echo "    seed $seed: monitor threads {1,2,8} byte-identical (nodes list + report data tier)"
done
echo "monitor determinism matrix passed."

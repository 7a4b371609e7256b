#!/usr/bin/env bash
# Monitor determinism matrix: the continuous-monitoring workload must
# render a byte-identical nodes list and report Data section at every
# seeds x threads cell, over 30 simulated days under the rolling-outages
# chaos plan (both outage waves lift inside the horizon, so the matrix
# exercises liveness, death AND rebirth detection). Threads are the most
# worker-pool threads one round's checks run on (`--workers`); at small()
# no round is wide enough to leave the calling thread.
#
# After the small() matrix, one medium() seed runs 30 days at workers 1
# and 8: its 110-domain roster has rounds of up to 109 checks. The two
# nodes lists and report Data sections must match, and the nodes list
# must hash to a digest recorded before the monitor's rounds were sized
# by width and its peers lists borrowed (commit d82a8f6).
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

medium_nodes_sha256=90c795699e880690a2545e2f9148fe5f0b0841c9121a142fbd58ddaae3ca3f02
for w in 1 8; do
  tag="mon-medium-w$w"
  cargo run -q --release -p flock-repro -- \
    --monitor --scale medium --seed 1234 --workers "$w" \
    --chaos rolling-outages --sim-days 30 \
    --nodes "$scratch/$tag.nodes" \
    --report "$scratch/$tag.report.txt" >/dev/null 2>&1
  test -s "$scratch/$tag.nodes"
  data_fence report "$scratch/$tag.report.txt" >"$scratch/$tag.report.data"
done
if ! cmp -s "$scratch/mon-medium-w1.nodes" "$scratch/mon-medium-w8.nodes"; then
  echo "DETERMINISM FAILURE: medium seed 1234 monitor nodes list differs between workers=1 and workers=8" >&2
  exit 1
fi
if ! cmp -s "$scratch/mon-medium-w1.report.data" "$scratch/mon-medium-w8.report.data"; then
  echo "DETERMINISM FAILURE: medium seed 1234 monitor report Data section differs between workers=1 and workers=8" >&2
  exit 1
fi
if ! echo "$medium_nodes_sha256  $scratch/mon-medium-w1.nodes" | sha256sum -c --quiet -; then
  echo "GOLDEN FAILURE: medium seed 1234 monitor nodes list no longer hashes to $medium_nodes_sha256" >&2
  exit 1
fi
echo "    medium seed 1234: monitor workers=1 == workers=8, nodes list matches its golden digest"
echo "monitor determinism matrix passed."

#!/usr/bin/env bash
# Local CI gate: formatting, clippy, flock-lint (the line rules plus the
# call-graph tier-taint and interprocedural lock-order passes, in one run),
# the tier-1 build + test suite, a smoke
# pass over every bench target (including the throughput bench, which in
# --test mode does not append to the committed BENCH_history.jsonl but
# prints its trend-gate verdicts against it, never failing on one), one
# release run of every example (each must exit 0), the flockbench test suite (its workloads and output digests), the
# determinism matrix (seeds x worker counts must stamp and publish the
# anonymized release byte-identically; one medium() seed must also hash
# to its recorded golden digests),
# the monitor determinism matrix (the continuous-monitoring workload must
# render byte-identical nodes lists and report Data sections at any
# thread count, through a chaos plan with instance rebirth; one medium()
# seed's nodes list must also hash to its recorded golden digest),
# a chaos-scenario smoke crawl, a run-dashboard smoke (self-contained
# HTML whose fenced Data region is also byte-compared in the determinism
# matrix, plus a --diff view that must flag chaos divergence), and an
# advisory throughput-regression check (scripts/bench_check.sh: the
# throughput smoke again, failing on a REGRESSION verdict). The same
# script backs .github/workflows/ci.yml. Fenced Data regions are carved
# out by `data_fence` from scripts/lib.sh.
#
# Every stage prints a named banner on entry and its wall-clock seconds on
# exit, so a matrix failure in CI logs pins down both the stage and — via
# the per-cell messages below — the exact seed/workers cell.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

scratch="$(mktemp -d -t flock-ci-XXXXXX)"
trap 'rm -rf "$scratch"' EXIT

stage_name=""
stage_start=0
stage_end() {
  if [ -n "$stage_name" ]; then
    echo "    [timing] ${stage_name}: $((SECONDS - stage_start))s"
  fi
}
stage() {
  stage_end
  stage_name="$1"
  stage_start=$SECONDS
  echo "==> $1"
}

stage "cargo fmt --check"
cargo fmt --check

stage "cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

stage "cargo run -p flock-lint -- --workspace"
cargo run -q -p flock-lint -- --workspace

stage "cargo build --release"
cargo build --release

stage "cargo test --workspace"
cargo test --workspace -q

stage "cargo bench -p flock-bench -- --test (smoke)"
cargo bench -p flock-bench -- --test

# Clippy and the test build only compile the examples; this runs each one.
stage "examples smoke (every examples/*.rs once, release)"
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  if ! cargo run -q --release --example "$name" >"$scratch/example-$name.log" 2>&1; then
    echo "EXAMPLE FAILURE: $name exited non-zero; its output follows" >&2
    cat "$scratch/example-$name.log" >&2
    exit 1
  fi
  echo "    example $name: exit 0"
done

# flockbench is its own workspace, so `cargo test --workspace` skips it.
# Its smoke test drives every workload through the public entry points it
# calls and checks each job digest against flockbench/digests.tsv: a
# broken bench-facing API or a moved output fails here.
stage "flockbench tests (bench-facing API + digests.tsv)"
cargo test --release --offline --manifest-path flockbench/Cargo.toml

stage "repro --metrics smoke"
metrics_out="$scratch/metrics.json"
cargo run -q --release -p flock-repro -- \
  --scale small --seed 1234 --metrics "$metrics_out" headline >/dev/null
test -s "$metrics_out"
grep -q '"flock.apis.search.granted"' "$metrics_out"

stage "determinism matrix (seeds x workers must stamp and release byte-identically; medium golden)"
for seed in 1 1234 9999; do
  for w in 1 8; do
    cargo run -q --release -p flock-repro -- \
      --scale small --seed "$seed" --workers "$w" \
      --report "$scratch/s$seed-w$w.report.txt" \
      --dashboard "$scratch/s$seed-w$w.dash.html" \
      "stamp=$scratch/s$seed-w$w.stamp" \
      "dump-dataset=$scratch/s$seed-w$w.release.json" headline >/dev/null 2>&1
  done
  if ! cmp -s "$scratch/s$seed-w1.stamp" "$scratch/s$seed-w8.stamp"; then
    echo "DETERMINISM FAILURE: seed $seed stamps differ between workers=1 and workers=8" >&2
    exit 1
  fi
  if ! cmp -s "$scratch/s$seed-w1.release.json" "$scratch/s$seed-w8.release.json"; then
    echo "DETERMINISM FAILURE: seed $seed anonymized releases differ between workers=1 and workers=8" >&2
    exit 1
  fi
  # The run report's fenced Data-tier section is part of the determinism
  # contract too, and so is the dashboard's fenced Data region — every
  # chart pixel in it (geometry included): carve both out and compare
  # them across worker counts.
  for w in 1 8; do
    data_fence report "$scratch/s$seed-w$w.report.txt" >"$scratch/s$seed-w$w.report.data"
    data_fence dashboard "$scratch/s$seed-w$w.dash.html" >"$scratch/s$seed-w$w.dash.data"
  done
  if ! cmp -s "$scratch/s$seed-w1.report.data" "$scratch/s$seed-w8.report.data"; then
    echo "DETERMINISM FAILURE: seed $seed report Data sections differ between workers=1 and workers=8" >&2
    exit 1
  fi
  if ! cmp -s "$scratch/s$seed-w1.dash.data" "$scratch/s$seed-w8.dash.data"; then
    echo "DETERMINISM FAILURE: seed $seed dashboard Data regions differ between workers=1 and workers=8" >&2
    exit 1
  fi
  echo "    seed $seed: workers=1 == workers=8 (stamp + release + report data tier + dashboard data region)"
done
# One medium() seed: a second scale for the golden bytes. Both files must
# match across worker counts and hash to the digests recorded before the
# search index moved to interned token ids (commit 9852165).
medium_stamp_sha256=10c003997bf303b894c506373361afa059acc016a55face373ca439a28bb84f3
medium_release_sha256=7f0bfbbe1bc82b8be02088192180220b89b2c3a630a6293c7c880c3134bbb989
for w in 1 8; do
  cargo run -q --release -p flock-repro -- \
    --scale medium --seed 1234 --workers "$w" \
    "stamp=$scratch/medium-w$w.stamp" \
    "dump-dataset=$scratch/medium-w$w.release.json" >/dev/null 2>&1
done
for kind in stamp release.json; do
  if ! cmp -s "$scratch/medium-w1.$kind" "$scratch/medium-w8.$kind"; then
    echo "DETERMINISM FAILURE: medium seed 1234 $kind differs between workers=1 and workers=8" >&2
    exit 1
  fi
done
if ! echo "$medium_stamp_sha256  $scratch/medium-w1.stamp" | sha256sum -c --quiet -; then
  echo "GOLDEN FAILURE: medium seed 1234 stamp no longer hashes to $medium_stamp_sha256" >&2
  exit 1
fi
if ! echo "$medium_release_sha256  $scratch/medium-w1.release.json" | sha256sum -c --quiet -; then
  echo "GOLDEN FAILURE: medium seed 1234 release no longer hashes to $medium_release_sha256" >&2
  exit 1
fi
echo "    medium seed 1234: workers=1 == workers=8, stamp + release match their golden digests"

stage "monitor determinism matrix (seeds x threads, 30 days under rolling outages; medium golden)"
# rolling-outages lifts both outage waves inside the horizon, so the
# matrix exercises liveness, death AND rebirth detection; the nodes list
# and the report's Data section must be byte-identical at every cell,
# and one medium() seed's nodes list must hash to its golden digest.
# The loop lives in its own script so the dedicated monitor-determinism
# CI job can run exactly the same cells without re-running the rest of
# this gate.
scripts/monitor_matrix.sh

stage "report smoke (repro --report under chaos: fences, attribution, extension-keyed format)"
report_out="$scratch/report.txt"
cargo run -q --release -p flock-repro -- \
  --scale small --seed 1234 --chaos rate-limit-storm --workers 8 \
  --report "$report_out" headline >/dev/null 2>&1
test -s "$report_out"
grep -q 'wait attribution' "$report_out"
grep -q 'retry_after_storm=[1-9]' "$report_out"

stage "dashboard smoke (self-contained HTML, trend charts, --diff flags chaos divergence)"
calm_report="$scratch/calm.report.txt"
cargo run -q --release -p flock-repro -- \
  --scale small --seed 1234 --chaos calm --workers 8 \
  --report "$calm_report" headline >/dev/null 2>&1
dash_out="$scratch/storm.dash.html"
cargo run -q --release -p flock-repro -- \
  --scale small --seed 1234 --chaos rate-limit-storm --workers 8 \
  --report "$scratch/storm.report.html" \
  --dashboard "$dash_out" --diff "$calm_report" headline >/dev/null 2>&1
# The --report extension convention: .html selects the HTML renderer.
grep -q '<html' "$scratch/storm.report.html"
test -s "$dash_out"
# One gated trend chart per bench metric, fed by the committed history.
for key in search-qps expand-secs monitor-checks peak-rss; do
  grep -q "trend-$key" "$dash_out"
done
# Self-contained: a dashboard must never fetch external JS/CSS/fonts.
if grep -Eq 'src=|href=|@import|url\(|<script' "$dash_out"; then
  echo "DASHBOARD FAILURE: external resource reference in $dash_out" >&2
  exit 1
fi
# The diff view must flag the chaos-impact counter divergence between the
# calm and rate-limit-storm runs.
if ! grep -E '<tr class="chg">' "$dash_out" | grep -q 'chaos'; then
  echo "DASHBOARD FAILURE: --diff did not flag divergent chaos lines" >&2
  exit 1
fi
echo "    dashboard: 4 trend charts, self-contained, diff flags chaos divergence"

stage "chaos smoke (repro --chaos rate-limit-storm must degrade gracefully)"
chaos_log="$scratch/chaos.log"
cargo run -q --release -p flock-repro -- \
  --scale small --seed 1234 --chaos rate-limit-storm headline \
  >/dev/null 2>"$chaos_log"
grep -q '\[repro\] chaos scenario: rate-limit-storm' "$chaos_log"
grep -q '\[repro\] coverage:' "$chaos_log"
grep '\[repro\] coverage:' "$chaos_log"

stage "bench_check (advisory: throughput trend gate)"
if ! scripts/bench_check.sh; then
  echo "WARNING: bench_check reported a regression (advisory only; not failing the gate)" >&2
fi

stage_end
echo "CI gate passed."

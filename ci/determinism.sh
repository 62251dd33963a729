#!/usr/bin/env bash
# Shared driver for the determinism CI matrix.
#
# Every scenario runs the same product binary at different worker counts
# and must serialize byte-identical exports; this script is the single
# place the scenario commands and the byte-diff live, so the grid, chaos,
# fleet, cluster and report jobs cannot drift apart.
#
# Usage:
#   ci/determinism.sh run <grid|chaos|fleet|cluster|report> <jobs>   # exports into out-<jobs>/
#   ci/determinism.sh diff <jobs-a> <jobs-b>          # byte-compare the trees
#   ci/determinism.sh digest <scenario> <jobs>        # sha256 of every export in out-<jobs>/
#   ci/determinism.sh check <scenario> <jobs>         # compare those with the manifest
#   ci/determinism.sh manifest                        # rewrite the manifest
#
# The binary is expected at target/release/sebs. `diff` compares every
# file produced by `run`; stdout captures have output paths stripped
# first, since the per-jobs directory name is the one intended difference.
# `digest` hashes the same bytes `diff` compares.
#
# ci/determinism.sha256 pins every scenario's exports at --jobs 1, so a
# change that moves any result fails `check` at every worker count. A
# change that alters an export on purpose reruns `manifest` (which runs
# all five scenarios at --jobs 1) and says why in its description.
set -euo pipefail

SEBS=${SEBS:-target/release/sebs}
MANIFEST="$(dirname "$0")/determinism.sha256"

# One `<sha256>  <scenario>/<file>` line per export in out-<jobs>/.
digest() {
  local scenario=$1 dir="out-$2" f sum
  for f in "$dir"/*; do
    if [ "$(basename "$f")" = "stdout.txt" ]; then
      sum=$(sed 's/out-[0-9]*\///' "$f" | sha256sum)
    else
      sum=$(sha256sum < "$f")
    fi
    echo "${sum%% *}  $scenario/$(basename "$f")"
  done | LC_ALL=C sort -k 2
}

run_grid() {
  local out=$1 jobs=$2
  "$SEBS" experiment perf-cost graph-bfs thumbnailer \
    --provider all --memory 128,512 --samples 10 \
    --jobs "$jobs" --json "$out/results.json" --trace "$out/trace.json" \
    --metrics "$out/metrics.prom" > "$out/stdout.txt"
  "$SEBS" experiment perf-cost graph-bfs thumbnailer \
    --provider all --memory 128,512 --samples 10 \
    --jobs "$jobs" --trace "$out/breakdown.txt" --trace-format table \
    --metrics "$out/metrics.csv" --metrics-format csv > /dev/null
}

run_chaos() {
  local out=$1 jobs=$2
  "$SEBS" availability dynamic-html \
    --provider gcp --memory 256 --samples 25 \
    --fault-rates 0,0.08,0.3 \
    --faults "storage=0.03,stall=1.5,corrupt=0.01,outage=2..4@1.0,storm=6..9@0.9" \
    --retry "attempts=4,base=50,cap=400,jitter=0.5,hedge=0.9,breaker=8@5000" \
    --jobs "$jobs" --json "$out/avail.json" --csv "$out/avail.csv" \
    --trace "$out/avail-trace.json" \
    --metrics "$out/avail-metrics.prom" > "$out/stdout.txt"
}

run_fleet() {
  local out=$1 jobs=$2
  "$SEBS" fleet --provider aws \
    --functions 300 --invocations 30000 --horizon-secs 3600 \
    --metrics-interval-secs 300 --jobs "$jobs" \
    --json "$out/fleet.json" --csv "$out/fleet.csv" \
    --trace "$out/fleet-trace.json" \
    --metrics "$out/fleet-metrics.prom" > "$out/stdout.txt"
  "$SEBS" fleet --provider aws \
    --functions 300 --invocations 30000 --horizon-secs 3600 \
    --metrics-interval-secs 300 --jobs "$jobs" \
    --trace "$out/fleet-breakdown.txt" --trace-format table \
    --metrics "$out/fleet-metrics.csv" --metrics-format csv > /dev/null
}

run_cluster() {
  local out=$1 jobs=$2
  # Scheduler x keep-alive x host-fault sweep on a multi-host region:
  # crash schedules, failover retries and shedding must all replay
  # byte-identically at any worker count.
  "$SEBS" cluster --provider aws \
    --hosts 8 --cpus 4 --queue 8 \
    --functions 12 --invocations 1200 --horizon-secs 900 \
    --schedulers least-loaded,random-2,locality \
    --keepalives provider,fixed-600,hybrid \
    --host-fault-rates 0,0.15,0.4 \
    --jobs "$jobs" --json "$out/cluster.json" --csv "$out/cluster.csv" \
    --trace "$out/cluster-trace.json" > "$out/stdout.txt"
}

run_report() {
  local out=$1 jobs=$2
  # Full observability stack on: sampled exemplar traces, quantile
  # sketches and the phase profiler all feed the rendered report, which
  # must still be byte-identical at any worker count.
  "$SEBS" report --provider aws \
    --functions 200 --invocations 20000 --horizon-secs 3600 \
    --metrics-interval-secs 300 --jobs "$jobs" \
    --out "$out/report.md" > "$out/stdout.txt"
  "$SEBS" report --provider aws \
    --functions 200 --invocations 20000 --horizon-secs 3600 \
    --metrics-interval-secs 300 --jobs "$jobs" \
    --format html --out "$out/report.html" > /dev/null
}

cmd=${1:?usage: determinism.sh <run|diff> ...}
case "$cmd" in
  run)
    scenario=${2:?scenario}; jobs=${3:?jobs}
    out="out-$jobs"
    rm -rf "$out"
    mkdir -p "$out"
    case "$scenario" in
      grid)    run_grid    "$out" "$jobs" ;;
      chaos)   run_chaos   "$out" "$jobs" ;;
      fleet)   run_fleet   "$out" "$jobs" ;;
      cluster) run_cluster "$out" "$jobs" ;;
      report)  run_report  "$out" "$jobs" ;;
      *) echo "unknown scenario: $scenario" >&2; exit 2 ;;
    esac
    ;;
  diff)
    a="out-${2:?jobs-a}"; b="out-${3:?jobs-b}"
    status=0
    for fa in "$a"/*; do
      f=$(basename "$fa")
      fb="$b/$f"
      if [ ! -f "$fb" ]; then
        echo "MISSING: $fb" >&2; status=1; continue
      fi
      if [ "$f" = "stdout.txt" ]; then
        # The emitted file paths differ by design; nothing else may.
        if ! cmp -s <(sed 's/out-[0-9]*\///' "$fa") <(sed 's/out-[0-9]*\///' "$fb"); then
          echo "DIFFERS (beyond paths): $f" >&2; status=1
        fi
      elif ! cmp -s "$fa" "$fb"; then
        echo "DIFFERS: $f" >&2; status=1
      fi
    done
    if [ "$status" = 0 ]; then
      echo "byte-identical: $a == $b ($(ls "$a" | wc -l) files)"
    fi
    exit "$status"
    ;;
  digest)
    digest "${2:?scenario}" "${3:?jobs}"
    ;;
  check)
    scenario=${2:?scenario}; jobs=${3:?jobs}
    if diff <(grep " $scenario/" "$MANIFEST") <(digest "$scenario" "$jobs"); then
      echo "matches $MANIFEST: $scenario at --jobs $jobs"
    else
      echo "DIFFERS from $MANIFEST: $scenario at --jobs $jobs" >&2
      exit 1
    fi
    ;;
  manifest)
    for scenario in grid chaos fleet cluster report; do
      "$0" run "$scenario" 1
      digest "$scenario" 1
    done > "$MANIFEST.new"
    mv "$MANIFEST.new" "$MANIFEST"
    ;;
  *)
    echo "unknown command: $cmd" >&2; exit 2 ;;
esac

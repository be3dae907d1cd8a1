#!/usr/bin/env bash
# The benchmark's one command. Builds benchmark/ (which compiles ../src) in
# build-bench/, then runs each workload in its own process.
#
#   benchmark/run.sh [--workload NAME | --workloads=a,b] [--seed N]
#                    [--seconds S] [--trace 0|1] [--smoke] [--selftest]
#
# Flags take "--flag value" or "--flag=value". Defaults: all four workloads,
# seed 1, 15 measured seconds, --trace 0 (end-to-end metrics; --trace 1
# runs the per-layer driver instead). Each workload prints its metrics by
# name with their units and ends with one JSON result line, saved to
# build-bench/results/; with one workload that line is the last line of
# stdout. Build output goes to stderr.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

workloads="serve-hot,serve-churn,sim-fig6,sim-multi-write"
seed=1
seconds=15
trace=0
extra=()
while [ $# -gt 0 ]; do
  case "$1" in
    --workload|--workloads|--seed|--seconds|--trace)
      [ $# -ge 2 ] || { echo "run.sh: $1 needs a value" >&2; exit 2; }
      set -- "$1=$2" "${@:3}"
      continue
      ;;
    --workload=*|--workloads=*) workloads="${1#*=}" ;;
    --seed=*) seed="${1#*=}" ;;
    --seconds=*) seconds="${1#*=}" ;;
    --trace=*) trace="${1#*=}" ;;
    --smoke|--selftest) extra+=("$1") ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done
case "$trace" in
  0) bin=ulc_benchmark ;;
  1) bin=ulc_benchmark_traced ;;
  *) echo "run.sh: --trace must be 0 or 1" >&2; exit 2 ;;
esac

build=build-bench
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j4 >&2

mkdir -p "$build/results"
IFS=',' read -ra names <<< "$workloads"
for w in "${names[@]}"; do
  stem="$build/results/$w-seed$seed-trace$trace"
  args=(--workload="$w" --seed="$seed" --seconds="$seconds" ${extra[@]+"${extra[@]}"})
  if [ "$trace" = 1 ]; then args+=(--trace-out="$stem.chrome.json"); fi
  "$build/$bin" "${args[@]}" | tee "$stem.log"
  tail -n 1 "$stem.log" > "$stem.json"
done

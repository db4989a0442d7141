#!/usr/bin/env bash
# Builds bench_e2e (Release, no google-benchmark) from this checkout and
# runs it.
#
#   bench/e2e/run.sh                  all four workloads, end-to-end metrics
#   bench/e2e/run.sh --trace          all four, traced pass: per-layer
#                                     metrics plus a Chrome trace per run
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# --workload may be repeated. --seconds is the measured time of the whole
# call (default 12, the run_seconds of BENCHMARK.json), split evenly across
# the workloads it runs: one workload measures 12 s, all four 3 s each.
# --out DIR keeps the run records compare.py reads (default:
# build-bench/e2e/runs). The build directory is build-bench/e2e. Build
# output goes to stderr; each run's last stdout line is its JSON result.
# Exits non-zero when any run fails a correctness check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
cd "$root"
if [[ ! -f src/CMakeLists.txt ]]; then
  echo "run.sh: Chiron sources not found (expected $root/src)" >&2
  exit 2
fi

workloads=()
seed=1
seconds=12
trace=0
out=""
while (($#)); do
  case "$1" in
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    --seed) seed="${2:?--seed needs a number}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a number}"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2
      else trace=1; shift; fi ;;
    --out) out="${2:?--out needs a directory}"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
((${#workloads[@]})) ||
  workloads=(deploy_suite engine_1node fleet_finra100 faults_8node)

build=build-bench/e2e
out="${out:-$build/runs}"
{
  [[ -f "$build/CMakeCache.txt" ]] ||
    cmake -S bench/e2e -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" --target bench_e2e -j "$(nproc)"
} >&2
mkdir -p "$out" "$build/traces"
each=$(awk -v s="$seconds" -v n="${#workloads[@]}" 'BEGIN { print s / n }')

status=0
for w in "${workloads[@]}"; do
  args=(--workload "$w" --seed "$seed" --seconds "$each" --trace "$trace"
        --expected bench/e2e/expected.json --out-dir "$out")
  if [[ "$trace" == 1 ]]; then
    args+=(--trace-out "$build/traces/$w.seed$seed.json")
  fi
  "$build/bench_e2e" "${args[@]}" || status=$?
done
exit "$status"

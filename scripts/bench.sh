#!/usr/bin/env bash
# Deploy-path benchmark runner: builds the Release tree, runs the
# micro_pgp + micro_predictor + micro_fault + micro_obs suites in
# google-benchmark JSON mode, and folds the results into
# BENCH_deploy.json at the repo root so the perf trajectory is tracked
# PR-over-PR. micro_obs carries the recorder-overhead datapoint
# (BM_ClusterRecorderOn vs BM_ClusterRecorderOff).
#
#   scripts/bench.sh                        # full run, writes BENCH_deploy.json
#   scripts/bench.sh --smoke                # fast correctness pass, no output file
#   scripts/bench.sh --baseline old.json    # embed a prior run under "baseline"
#
# Env overrides: BENCH_BUILD_DIR (default build-bench), JOBS (nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BENCH_BUILD_DIR="${BENCH_BUILD_DIR:-build-bench}"

SMOKE=0
BASELINE=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) SMOKE=1 ;;
    --baseline)
      [[ $# -ge 2 ]] || { echo "--baseline requires a file" >&2; exit 2; }
      BASELINE="$2"; shift ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
  shift
done

# Machine-load sanity gate: timings taken while the box is already busy
# are noise, not signal. The 1-min load average at bench start is
# recorded into BENCH_deploy.json, and when it exceeds 1.0 every timed
# suite is re-run once after the first pass (the second pass, taken
# after the initial load has had time to drain, is the one recorded).
read -r LOAD_AVG_START _ < /proc/loadavg
HIGH_LOAD=0
if awk -v l="${LOAD_AVG_START}" 'BEGIN { exit !(l > 1.0) }'; then
  HIGH_LOAD=1
  echo "WARNING: 1-min load average ${LOAD_AVG_START} > 1.0 at bench" \
       "start; timings may be contended — each suite will be re-run once"
fi

echo "== bench: configure + build Release (${BENCH_BUILD_DIR}) =="
cmake -B "${BENCH_BUILD_DIR}" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "${BENCH_BUILD_DIR}" -j "${JOBS}" \
  --target bench_micro_pgp bench_micro_predictor bench_micro_fault \
           bench_micro_obs bench_micro_sweep bench_micro_cluster \
           bench_micro_router bench_micro_parallel

if [[ "${SMOKE}" == "1" ]]; then
  # One tiny repetition per suite: proves the binaries run and produce
  # well-formed JSON without paying for stable timings.
  echo "== bench: smoke =="
  "${BENCH_BUILD_DIR}/bench/bench_micro_pgp" \
    --benchmark_filter='BM_PgpScheduleKl/5$' --benchmark_min_time=0.01 \
    --benchmark_format=json >/dev/null
  "${BENCH_BUILD_DIR}/bench/bench_micro_predictor" \
    --benchmark_filter='BM_WorkflowPrediction/5$' --benchmark_min_time=0.01 \
    --benchmark_format=json >/dev/null
  "${BENCH_BUILD_DIR}/bench/bench_micro_fault" \
    --benchmark_filter='BM_FaultInjectorRoll$' --benchmark_min_time=0.01 \
    --benchmark_format=json >/dev/null
  "${BENCH_BUILD_DIR}/bench/bench_micro_obs" \
    --benchmark_filter='BM_RecorderRecord$' --benchmark_min_time=0.01 \
    --benchmark_format=json >/dev/null
  "${BENCH_BUILD_DIR}/bench/bench_micro_sweep" \
    --benchmark_filter='BM_SweepSequential/2$' --benchmark_min_time=0.01 \
    --benchmark_format=json >/dev/null
  "${BENCH_BUILD_DIR}/bench/bench_micro_cluster" \
    --benchmark_filter='BM_ClusterRun/1024$' --benchmark_min_time=0.01 \
    --benchmark_format=json >/dev/null
  "${BENCH_BUILD_DIR}/bench/bench_micro_router" \
    --benchmark_filter='BM_RouterPolicy/warm_affinity$' \
    --benchmark_min_time=0.01 --benchmark_format=json >/dev/null
  "${BENCH_BUILD_DIR}/bench/bench_micro_parallel" \
    --benchmark_filter='BM_ClusterRunParallel/(nodes8/65536|faults8)' \
    --benchmark_min_time=0.01 --benchmark_format=json >/dev/null
  echo "== bench: smoke OK =="
  exit 0
fi

PGP_JSON="${BENCH_BUILD_DIR}/micro_pgp.json"
PRED_JSON="${BENCH_BUILD_DIR}/micro_predictor.json"
FAULT_JSON="${BENCH_BUILD_DIR}/micro_fault.json"
OBS_JSON="${BENCH_BUILD_DIR}/micro_obs.json"
SWEEP_JSON="${BENCH_BUILD_DIR}/micro_sweep.json"
CLUSTER_JSON="${BENCH_BUILD_DIR}/micro_cluster.json"
ROUTER_JSON="${BENCH_BUILD_DIR}/micro_router.json"
PARALLEL_JSON="${BENCH_BUILD_DIR}/micro_parallel.json"

# Runs one suite to JSON. Under the high-load gate each suite runs
# twice back-to-back and the second pass wins: by then the competing
# load observed at start has had the whole first pass to drain, and the
# recorded numbers come from the calmer window.
run_suite() {
  local label="$1" binary="$2" out="$3"
  echo "== bench: ${label} =="
  "${binary}" --benchmark_format=json --benchmark_out="${out}" \
    --benchmark_out_format=json
  if [[ "${HIGH_LOAD}" == "1" ]]; then
    echo "== bench: ${label} (re-run: 1-min load was ${LOAD_AVG_START} at start) =="
    "${binary}" --benchmark_format=json --benchmark_out="${out}" \
      --benchmark_out_format=json
  fi
}

run_suite micro_pgp "${BENCH_BUILD_DIR}/bench/bench_micro_pgp" "${PGP_JSON}"
run_suite micro_predictor "${BENCH_BUILD_DIR}/bench/bench_micro_predictor" "${PRED_JSON}"
run_suite micro_fault "${BENCH_BUILD_DIR}/bench/bench_micro_fault" "${FAULT_JSON}"
run_suite micro_obs "${BENCH_BUILD_DIR}/bench/bench_micro_obs" "${OBS_JSON}"
run_suite micro_sweep "${BENCH_BUILD_DIR}/bench/bench_micro_sweep" "${SWEEP_JSON}"
run_suite micro_cluster "${BENCH_BUILD_DIR}/bench/bench_micro_cluster" "${CLUSTER_JSON}"
run_suite micro_router "${BENCH_BUILD_DIR}/bench/bench_micro_router" "${ROUTER_JSON}"
run_suite micro_parallel "${BENCH_BUILD_DIR}/bench/bench_micro_parallel" "${PARALLEL_JSON}"

python3 - "$PGP_JSON" "$PRED_JSON" "$FAULT_JSON" "$OBS_JSON" "$SWEEP_JSON" \
  "$CLUSTER_JSON" "$ROUTER_JSON" "$PARALLEL_JSON" "$LOAD_AVG_START" \
  "$HIGH_LOAD" "$BASELINE" <<'PY'
import json, sys

(pgp_path, pred_path, fault_path, obs_path, sweep_path, cluster_path,
 router_path, parallel_path, load_avg_start, high_load,
 baseline_path) = sys.argv[1:12]
out = {
    "bench": "deploy",
    "build_type": "Release",
    "load_avg": {
        "start_1min": float(load_avg_start),
        "high_load_rerun": high_load == "1",
    },
    "micro_pgp": json.load(open(pgp_path)),
    "micro_predictor": json.load(open(pred_path)),
    "micro_fault": json.load(open(fault_path)),
    "micro_obs": json.load(open(obs_path)),
    "micro_sweep": json.load(open(sweep_path)),
    "micro_cluster": json.load(open(cluster_path)),
    "micro_router": json.load(open(router_path)),
    "micro_parallel": json.load(open(parallel_path)),
}

# Surface the benchmark library's own build type: timings taken against a
# debug libbenchmark (distro default on some images) are tainted, and the
# honest fix is building it from source — see CHIRON_BENCHMARK_SOURCE_DIR
# in CMakeLists.txt.
lib_build = out["micro_predictor"].get("context", {}).get(
    "library_build_type", "unknown")
out["benchmark_library_build_type"] = lib_build
if lib_build != "release":
    print("WARNING: libbenchmark build type is %r (want 'release'); "
          "provide sources via CHIRON_BENCHMARK_SOURCE_DIR to clear the "
          "timing taint" % lib_build)

# Kernel-complexity aggregates: the BigO fits for the fast interleaving
# kernels and their retired scan-per-step references, plus the measured
# speedup at the largest size. check.sh guards the GIL fit against a
# regression to N^2.
def bigo(suite, family):
    for b in out[suite].get("benchmarks", []):
        if b.get("name") == family + "_BigO":
            return {"big_o": b.get("big_o"),
                    "cpu_coefficient": b.get("cpu_coefficient"),
                    "real_coefficient": b.get("real_coefficient")}
    return None

def time_at(suite, name):
    for b in out[suite].get("benchmarks", []):
        if b.get("name") == name:
            return b.get("real_time")
    return None

kernels = {}
for family, ref in (("BM_GilSimulationThreads", "BM_GilSimulationThreadsSlowRef"),
                    ("BM_CpuShareSimulation", "BM_CpuShareSimulationSlowRef")):
    entry = {"fast": bigo("micro_predictor", family),
             "slow_reference": bigo("micro_predictor", ref)}
    fast512 = time_at("micro_predictor", family + "/512")
    slow512 = time_at("micro_predictor", ref + "/512")
    if fast512 and slow512:
        entry["speedup_at_512"] = slow512 / fast512
    kernels[family] = entry
    if entry["fast"]:
        print("%s: BigO %s, %.1fx vs slow reference at 512"
              % (family, entry["fast"]["big_o"],
                 entry.get("speedup_at_512", float("nan"))))
out["kernel_bigo"] = kernels

# Serving-loop hot path: the typed-event loop (slab events, lazy arrival
# and timeout merges, O(1) cancellation) vs the retired closure loop, on
# the high-churn overload scenario. check.sh guards the fast fit against
# superlinear regressions and the speedup at 64k against < 2x.
cluster = {"fast": bigo("micro_cluster", "BM_ClusterRun"),
           "reference": bigo("micro_cluster", "BM_ClusterRunReference")}
fast64 = time_at("micro_cluster", "BM_ClusterRun/65536")
ref64 = time_at("micro_cluster", "BM_ClusterRunReference/65536")
if fast64 and ref64:
    cluster["speedup_at_65536"] = ref64 / fast64
    print("cluster hot path: BigO %s, %.1fx vs closure reference at 65536"
          % (cluster["fast"]["big_o"] if cluster["fast"] else "?",
             cluster["speedup_at_65536"]))
out["cluster_hotpath"] = cluster

# Windowed-engine scaling: the multi-node serving loop at sim_threads=1
# vs 4 window workers on healthy 8- and 32-node fleets, plus the
# barrier-heavy faults8 scenario (the faults_8node shape: thousands of
# narrow windows, which run inline). check.sh guards the 4-thread
# speedup on the 32-node scenario (>= 2x), 4 threads staying within 10 %
# of 1 on faults8 (both enforced only when the host actually has >= 4
# CPUs), and the parallel fit staying at or below N log N.
import os
parallel = {"cpus_online": os.cpu_count() or 1}
for nodes in ("nodes8", "nodes32"):
    entry = {
        "sequential": bigo("micro_parallel",
                           "BM_ClusterRunSharded/%s/real_time" % nodes),
        "parallel": bigo("micro_parallel",
                         "BM_ClusterRunParallel/%s/real_time" % nodes),
    }
    seq = time_at("micro_parallel",
                  "BM_ClusterRunSharded/%s/1048576/real_time" % nodes)
    par = time_at("micro_parallel",
                  "BM_ClusterRunParallel/%s/1048576/real_time" % nodes)
    if seq and par:
        entry["speedup_at_1048576"] = seq / par
        print("parallel loop %-7s: BigO %s, %.2fx at 4 threads / 1M requests"
              % (nodes,
                 entry["parallel"]["big_o"] if entry["parallel"] else "?",
                 entry["speedup_at_1048576"]))
    parallel[nodes] = entry
seq = time_at("micro_parallel", "BM_ClusterRunSharded/faults8/96000/real_time")
par = time_at("micro_parallel", "BM_ClusterRunParallel/faults8/96000/real_time")
if seq and par:
    parallel["faults8"] = {"sequential_ms": seq, "parallel_ms": par,
                           "speedup": seq / par}
    print("parallel loop faults8 : %.2fx at 4 threads / 96k requests "
          "(barrier-heavy)" % (seq / par))
out["parallel_loop"] = parallel

# Router-policy comparison on the skewed 8-node burst scenario: cold
# starts and p95 per placement policy. check.sh guards warm_affinity
# beating random on cold starts (locality must pay for itself).
policies = {}
for b in out["micro_router"].get("benchmarks", []):
    name = b.get("name", "")
    if not name.startswith("BM_RouterPolicy/"):
        continue
    policies[name.split("/", 1)[1]] = {
        "cold_starts": b.get("cold_starts"),
        "p95_ms": b.get("p95_ms"),
        "completed": b.get("completed"),
        "run_ms": b.get("real_time"),
    }
out["router_policies"] = policies
for policy in ("warm_affinity", "least_outstanding", "power_of_two",
               "round_robin", "random"):
    entry = policies.get(policy)
    if entry:
        print("router %-17s: %4d cold starts, p95 %6.1f ms"
              % (policy, entry["cold_starts"], entry["p95_ms"]))

# Surface the recorder-overhead acceptance datapoint directly: the
# recorder-on cluster run must stay within 5% of recorder-off.
times = {b["name"]: b["real_time"]
         for b in out["micro_obs"].get("benchmarks", [])
         if "name" in b and "real_time" in b}
on, off = times.get("BM_ClusterRecorderOn"), times.get("BM_ClusterRecorderOff")
if on and off:
    out["recorder_overhead"] = {
        "cluster_recorder_on_ms": on,
        "cluster_recorder_off_ms": off,
        "overhead_pct": 100.0 * (on - off) / off,
    }
    print("recorder overhead: %.2f%%" % out["recorder_overhead"]["overhead_pct"])
if baseline_path:
    out["baseline"] = json.load(open(baseline_path))
with open("BENCH_deploy.json", "w") as f:
    json.dump(out, f, indent=1)
    f.write("\n")
print("wrote BENCH_deploy.json")
PY

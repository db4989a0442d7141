#!/usr/bin/env bash
# Tier-1 verification wrapper: configure, build, and run the full ctest
# suite, then smoke the observability endpoint end-to-end (chironctl
# --serve-obs + curl). With --tsan, additionally build a ThreadSanitizer
# preset (-DCHIRON_SANITIZE=thread, separate build dir) and repeat the
# concurrency-sensitive subset — the live-thread engine, the local runner,
# the emulated GIL, and the tracer/metrics/recorder/obs-server layer.
# With --asan, build an AddressSanitizer + UndefinedBehaviorSanitizer
# preset (-DCHIRON_SANITIZE=address,undefined) and run the full suite.
#
#   scripts/check.sh                # plain tier-1
#   scripts/check.sh --tsan         # tier-1 + sanitized concurrency subset
#   scripts/check.sh --asan         # tier-1 + full suite under ASan+UBSan
#   scripts/check.sh --tsan --asan  # both
#
# Env overrides: BUILD_DIR (default build), TSAN_BUILD_DIR (build-tsan),
# ASAN_BUILD_DIR (build-asan), JOBS (nproc).
set -euo pipefail
cd "$(dirname "$0")/.."

TSAN=0
ASAN=0
for arg in "$@"; do
  case "${arg}" in
    --tsan) TSAN=1 ;;
    --asan) ASAN=1 ;;
    *) echo "unknown argument: ${arg}" >&2; exit 2 ;;
  esac
done

JOBS="${JOBS:-$(nproc)}"
BUILD_DIR="${BUILD_DIR:-build}"

echo "== tier-1: configure + build (${BUILD_DIR}) =="
cmake -B "${BUILD_DIR}" -S . >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== tier-1: bench smoke =="
scripts/bench.sh --smoke

echo "== tier-1: kernel BigO guard =="
# The fast GIL kernel must stay event-driven: a quick complexity fit over
# 8..512 threads (binary just built by the bench smoke) has to come out
# at N log N or better. A fit of N^2 (or worse) means someone re-linearised
# the inner loop — fail loudly before any timing is recorded.
GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/bigo_guard.json"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_predictor" \
  --benchmark_filter='BM_GilSimulationThreads/' --benchmark_min_time=0.01 \
  --benchmark_format=json 2>/dev/null > "${GUARD_JSON}"
python3 - "${GUARD_JSON}" <<'PY'
import json, sys
fits = {b["name"]: b.get("big_o")
        for b in json.load(open(sys.argv[1])).get("benchmarks", [])
        if b.get("aggregate_name") == "BigO"}
fit = fits.get("BM_GilSimulationThreads_BigO")
if fit is None:
    sys.exit("BigO guard: no complexity fit emitted for "
             "BM_GilSimulationThreads")
print("BM_GilSimulationThreads BigO fit: %s" % fit)
if fit in ("N^2", "N^3"):
    sys.exit("BigO guard: GIL kernel regressed to %s (want <= N log N)"
             % fit)
PY

echo "== tier-1: cluster hot-path guard =="
# The typed-event serving loop must stay near-linear and meaningfully
# ahead of the retired closure loop: the fast family's complexity fit has
# to come out at N log N or better, and the measured speedup over the
# reference at 65536 requests must hold >= 2x (the recorded full-run
# numbers in BENCH_deploy.json sit much higher; 2x keeps the quick
# min_time=0.01 fit from flaking on a loaded box).
CLUSTER_GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/cluster_guard.json"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_cluster" \
  --benchmark_min_time=0.01 \
  --benchmark_format=json 2>/dev/null > "${CLUSTER_GUARD_JSON}"
python3 - "${CLUSTER_GUARD_JSON}" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
fits, times = {}, {}
for b in doc.get("benchmarks", []):
    if b.get("aggregate_name") == "BigO":
        fits[b["name"]] = b.get("big_o")
    elif "real_time" in b:
        times[b["name"]] = b["real_time"]
fit = fits.get("BM_ClusterRun_BigO")
if fit is None:
    sys.exit("cluster guard: no complexity fit emitted for BM_ClusterRun")
print("BM_ClusterRun BigO fit: %s" % fit)
if fit in ("N^2", "N^3"):
    sys.exit("cluster guard: serving loop regressed to %s "
             "(want <= N log N)" % fit)
fast = times.get("BM_ClusterRun/65536")
ref = times.get("BM_ClusterRunReference/65536")
if not fast or not ref:
    sys.exit("cluster guard: missing 65536-request timings")
speedup = ref / fast
print("BM_ClusterRun speedup at 65536: %.2fx vs closure reference" % speedup)
if speedup < 2.0:
    sys.exit("cluster guard: typed loop only %.2fx faster than the "
             "closure reference at 65536 (want >= 2x)" % speedup)
PY

echo "== tier-1: parallel loop guard =="
# The windowed engine must actually buy wall-clock: at 4 sim threads on
# the 32-node scenario the parallel run has to finish >= 2x faster than
# the identical sim_threads=1 schedule at the largest size, and its
# complexity fit has to stay at N log N or better (a superlinear fit
# means the barrier/merge machinery started scaling with request
# count). On the barrier-heavy faults8 scenario (the faults_8node shape:
# thousands of narrow windows) 4 threads must not run more than 10 %
# slower than 1 — narrow windows run inline, so extra threads may never
# cost more than the sequential schedule; medians of 5 repetitions. Both
# timing clauses only bind when the host actually has >= 4 CPUs online —
# on smaller boxes the BigO clause still runs, the ratios are printed,
# and enforcement is skipped with a warning.
PARALLEL_GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/parallel_guard.json"
BARRIER_GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/barrier_guard.json"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_parallel" \
  --benchmark_filter='nodes32' --benchmark_min_time=0.01 \
  --benchmark_format=json 2>/dev/null > "${PARALLEL_GUARD_JSON}"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_parallel" \
  --benchmark_filter='faults8' --benchmark_min_time=0.1 \
  --benchmark_repetitions=5 --benchmark_report_aggregates_only=true \
  --benchmark_format=json 2>/dev/null > "${BARRIER_GUARD_JSON}"
python3 - "${PARALLEL_GUARD_JSON}" "${BARRIER_GUARD_JSON}" <<'PY'
import json, os, sys
doc = json.load(open(sys.argv[1]))
barrier = {b["run_name"]: b["real_time"]
           for b in json.load(open(sys.argv[2])).get("benchmarks", [])
           if b.get("aggregate_name") == "median"}
fits, times = {}, {}
for b in doc.get("benchmarks", []):
    if b.get("aggregate_name") == "BigO":
        fits[b["name"]] = b.get("big_o")
    elif "real_time" in b:
        times[b["name"]] = b["real_time"]
fit = fits.get("BM_ClusterRunParallel/nodes32/real_time_BigO")
if fit is None:
    sys.exit("parallel guard: no complexity fit emitted for "
             "BM_ClusterRunParallel/nodes32")
seq = times.get("BM_ClusterRunSharded/nodes32/1048576/real_time")
par = times.get("BM_ClusterRunParallel/nodes32/1048576/real_time")
mid = times.get("BM_ClusterRunParallel/nodes32/262144/real_time")
if not seq or not par or not mid:
    sys.exit("parallel guard: missing 262144/1048576-request timings")
# The library's three-point least-squares label wavers between NlgN and
# N^2 when the 1M point picks up cache pressure (~4.2-5x per 4x N), so a
# superlinear label alone is not a failure: require the measured growth
# to actually leave the N log N envelope too. N log N predicts ~4.4x per
# 4x N at this size; a genuine N^2 regression shows ~16x. 9x splits them
# with headroom for a noisy box.
growth = par / mid
print("BM_ClusterRunParallel/nodes32 BigO fit: %s (%.1fx per 4x N at 1M)"
      % (fit, growth))
if fit in ("N^2", "N^3") and growth > 9.0:
    sys.exit("parallel guard: windowed engine regressed to %s with %.1fx "
             "growth per 4x N (want <= N log N, ~4.4x)" % (fit, growth))
speedup = seq / par
cpus = os.cpu_count() or 1
print("parallel guard: %.2fx at 4 threads vs sequential schedule "
      "(32 nodes, 1M requests, %d CPUs online)" % (speedup, cpus))
b_seq = barrier.get("BM_ClusterRunSharded/faults8/96000/real_time")
b_par = barrier.get("BM_ClusterRunParallel/faults8/96000/real_time")
if not b_seq or not b_par:
    sys.exit("parallel guard: missing faults8 median timings")
slowdown = b_par / b_seq
print("parallel guard: faults8 4 threads at %.2fx the sequential schedule's "
      "time (barrier-heavy, 8 nodes, 96k requests)" % slowdown)
if cpus < 4:
    print("parallel guard: only %d CPUs online (need >= 4 for the "
          "timing clauses); >= 2x and <= 1.10x enforcement skipped" % cpus)
else:
    if speedup < 2.0:
        sys.exit("parallel guard: 4 sim threads only %.2fx faster than the "
                 "sequential schedule at 1M requests (want >= 2x)" % speedup)
    if slowdown > 1.10:
        sys.exit("parallel guard: 4 sim threads %.2fx slower than the "
                 "sequential schedule on faults8 (want <= 1.10x)" % slowdown)
PY

echo "== tier-1: router policy guard =="
# Placement must pay for itself: on the skewed 8-node burst scenario the
# warm-affinity router has to land well under random's cold-start count
# (full-run numbers in BENCH_deploy.json show ~25x; 2x keeps the quick
# pass honest without flaking). The counters are deterministic per seed,
# so min_time can stay tiny.
ROUTER_GUARD_JSON="${BENCH_BUILD_DIR:-build-bench}/router_guard.json"
"${BENCH_BUILD_DIR:-build-bench}/bench/bench_micro_router" \
  --benchmark_min_time=0.01 \
  --benchmark_format=json 2>/dev/null > "${ROUTER_GUARD_JSON}"
python3 - "${ROUTER_GUARD_JSON}" <<'PY'
import json, sys
cold = {b["name"].split("/", 1)[1]: b.get("cold_starts")
        for b in json.load(open(sys.argv[1])).get("benchmarks", [])
        if b.get("name", "").startswith("BM_RouterPolicy/")}
warm, rand = cold.get("warm_affinity"), cold.get("random")
if warm is None or rand is None:
    sys.exit("router guard: missing warm_affinity/random cold-start counters")
print("router guard: warm_affinity %d cold starts vs random %d"
      % (warm, rand))
if warm * 2 >= rand:
    sys.exit("router guard: warm_affinity (%d cold starts) no longer "
             "beats random (%d) by 2x on the burst scenario" % (warm, rand))
PY

echo "== tier-1: obs smoke =="
# End-to-end observability: run a faulted chironctl with the embedded obs
# endpoint + flight recorder, scrape /healthz + /metrics over HTTP, and
# JSON-validate /trace, /recorder, and the on-exit recorder dump.
OBS_LOG="${BUILD_DIR}/obs_smoke.log"
OBS_DUMP="${BUILD_DIR}/obs_smoke_recorder.json"
rm -f "${OBS_LOG}" "${OBS_DUMP}"
# CHIRON_LOG_LEVEL pinned: the port is parsed from the info-level
# "listening" line, which an inherited error-level env would filter.
CHIRON_LOG_LEVEL=info "${BUILD_DIR}/examples/chironctl" \
  --faults cold=0.05,crash=0.05,straggler=0.1x4,seed=7 \
  --retry 3 --timeout-ms 1500 --rps 30 \
  --serve-obs 0 --obs-linger-ms 6000 \
  --recorder --recorder-dump "${OBS_DUMP}" \
  >"${OBS_LOG}" 2>&1 &
OBS_PID=$!

OBS_PORT=""
for _ in $(seq 1 100); do
  OBS_PORT="$(sed -n 's#.*obs server listening on http://127\.0\.0\.1:\([0-9]*\).*#\1#p' "${OBS_LOG}" | head -n 1)"
  [[ -n "${OBS_PORT}" ]] && break
  sleep 0.1
done
if [[ -z "${OBS_PORT}" ]]; then
  echo "obs smoke: server never reported a port" >&2
  cat "${OBS_LOG}" >&2
  exit 1
fi

curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/healthz" | grep -q '^ok$'
curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/metrics" | grep -q '^# TYPE '
curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/trace" \
  | python3 -c 'import json,sys; json.load(sys.stdin)["traceEvents"]'
curl -fsS --max-time 5 "http://127.0.0.1:${OBS_PORT}/recorder" \
  | python3 -c 'import json,sys; json.load(sys.stdin)["events"]'

OBS_RC=0; wait "${OBS_PID}" || OBS_RC=$?
# 0 = SLO met, 3 = deployed but SLO missed; both mean the pipeline ran.
if [[ "${OBS_RC}" != "0" && "${OBS_RC}" != "3" ]]; then
  echo "obs smoke: chironctl exited ${OBS_RC}" >&2
  cat "${OBS_LOG}" >&2
  exit 1
fi
python3 -c 'import json,sys; json.load(open(sys.argv[1]))["events"]' "${OBS_DUMP}"
echo "== tier-1: obs smoke OK =="

if [[ "${TSAN}" == "1" ]]; then
  TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  echo "== tsan: configure + build (${TSAN_BUILD_DIR}) =="
  cmake -B "${TSAN_BUILD_DIR}" -S . -DCHIRON_SANITIZE=thread >/dev/null
  cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}"
  echo "== tsan: concurrency-sensitive subset =="
  ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" \
    -R 'Engine|LocalRunner|EmulatedGil|Gil|Tracer|Counter|Gauge|Histogram|MetricsRegistry|Instrumentation|ThreadPool|PredictionCache|PgpParity|Fault|Obs|Sweep|Cluster|Router|Par'
fi

if [[ "${ASAN}" == "1" ]]; then
  ASAN_BUILD_DIR="${ASAN_BUILD_DIR:-build-asan}"
  echo "== asan+ubsan: configure + build (${ASAN_BUILD_DIR}) =="
  cmake -B "${ASAN_BUILD_DIR}" -S . -DCHIRON_SANITIZE=address,undefined \
    >/dev/null
  cmake --build "${ASAN_BUILD_DIR}" -j "${JOBS}"
  echo "== asan+ubsan: full suite =="
  ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
  UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
    ctest --test-dir "${ASAN_BUILD_DIR}" --output-on-failure -j "${JOBS}"
fi

echo "== check.sh: all green =="

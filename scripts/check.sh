#!/usr/bin/env bash
# Tier-1 verification wrapper: configure, build, and run the full ctest
# suite, smoke and guard the micro benches (scripts/bench_guard.py), then
# smoke the observability endpoint end-to-end (chironctl --serve-obs +
# curl). With --tsan, additionally build a ThreadSanitizer preset
# (-DCHIRON_SANITIZE=thread, separate build dir) and repeat the
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
# -Werror keeps the tier-1 build warning-clean under -Wall -Wextra.
cmake -B "${BUILD_DIR}" -S . -DCMAKE_CXX_FLAGS=-Werror >/dev/null
cmake --build "${BUILD_DIR}" -j "${JOBS}"

echo "== tier-1: ctest =="
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"

echo "== tier-1: bench smoke + guards =="
scripts/bench_guard.py --smoke
scripts/bench_guard.py --check

echo "== tier-1: obs smoke =="
# End-to-end observability: run a faulted chironctl with the embedded obs
# endpoint + flight recorder, scrape /healthz + /metrics over HTTP,
# JSON-validate /trace and /recorder, and check that the on-exit recorder
# dump keeps every slot of its (deliberately small) capacity.
OBS_LOG="${BUILD_DIR}/obs_smoke.log"
OBS_DUMP="${BUILD_DIR}/obs_smoke_recorder.json"
rm -f "${OBS_LOG}" "${OBS_DUMP}"
# CHIRON_LOG_LEVEL pinned: the port is parsed from the info-level
# "listening" line, which an inherited error-level env would filter.
CHIRON_LOG_LEVEL=info "${BUILD_DIR}/examples/chironctl" \
  --faults cold=0.05,crash=0.05,straggler=0.1x4,seed=7 \
  --retry 3 --timeout-ms 1500 --rps 30 \
  --serve-obs 0 --obs-linger-ms 6000 \
  --recorder --recorder-capacity 256 --recorder-dump "${OBS_DUMP}" \
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
python3 - "${OBS_DUMP}" <<'PY'
import json, sys
dump = json.load(open(sys.argv[1]))
kept, recorded = len(dump["events"]), dump["recorded"]
assert dump["capacity"] == 256, f"capacity {dump['capacity']} != 256"
assert kept == min(dump["capacity"], recorded), \
    f"dump keeps {kept} of capacity {dump['capacity']} ({recorded} recorded)"
assert recorded == kept + dump["dropped"], \
    f"recorded {recorded} != {kept} kept + {dump['dropped']} dropped"
PY
echo "== tier-1: obs smoke OK =="

if [[ "${TSAN}" == "1" ]]; then
  TSAN_BUILD_DIR="${TSAN_BUILD_DIR:-build-tsan}"
  echo "== tsan: configure + build (${TSAN_BUILD_DIR}) =="
  cmake -B "${TSAN_BUILD_DIR}" -S . -DCHIRON_SANITIZE=thread >/dev/null
  cmake --build "${TSAN_BUILD_DIR}" -j "${JOBS}"
  echo "== tsan: concurrency-sensitive subset =="
  ctest --test-dir "${TSAN_BUILD_DIR}" --output-on-failure -j "${JOBS}" \
    -R 'Engine|LocalRunner|EmulatedGil|Gil|Tracer|Counter|Gauge|Histogram|MetricsRegistry|Instrumentation|ForkJoin|PredictionCache|PgpParity|PgpGolden|Fault|Obs|Sweep|Cluster|Router|Par'
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

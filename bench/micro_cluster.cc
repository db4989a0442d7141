// Serving-loop micro-benchmarks (bench/harness.h): the serving engine
// (ClusterSimulator::run) against the retired closure-based loop
// (run_prepared_reference) on a deliberately high-churn scenario — a
// small fixed fleet driven far past saturation with faults, retries, and
// a tight request timeout, so the waiting queue is deep and every event
// kind fires. The offered load scales with N while the horizon stays fixed,
// which makes the reference loop's O(Q) timeout erase superlinear while
// the typed loop stays O(N log N); the micro_cluster guard in
// scripts/bench_guard.py asserts both the fit and the speedup at 65536.
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "harness.h"
#include "obs/recorder.h"
#include "platform/cluster.h"

namespace {

using namespace chiron;
using bench::Timed;

/// Constant-latency, allocation-free backend sized so the cluster fits
/// exactly eight instances: saturation at ~230 rps, far below the
/// benchmark's offered load, which is what builds the deep queue.
class PodBackend : public Backend {
 public:
  explicit PodBackend(const RuntimeParams& params) {
    usage_.cpus = static_cast<double>(params.node_cpus) / 8.0;
    usage_.memory_mb = 0.0;
  }
  std::string name() const override { return "pod"; }
  RunResult run(Rng&) const override {
    RunResult r;
    r.e2e_latency_ms = 35.0;
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  ResourceUsage usage_;
};

/// ~`requests` arrivals over a fixed 20 s horizon with every churn source
/// armed: cold-start failures, mid-run crashes, stragglers, three retry
/// attempts, and a 2 s timeout that abandons deep-queue requests (the
/// queue holds ~excess_rps * timeout entries, so depth scales with N).
ClusterConfig churn_config(std::int64_t requests) {
  ClusterConfig config;
  config.nodes = 1;
  config.horizon_ms = 20000.0;
  config.offered_rps = static_cast<double>(requests) / 20.0;
  config.keep_alive_ms = 100.0;
  config.seed = 42;
  config.faults.cold_start_failure = 0.02;
  config.faults.crash = 0.05;
  config.faults.straggler = 0.05;
  config.faults.straggler_multiplier = 4.0;
  config.faults.seed = 7;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 2000.0;
  return config;
}

/// ~`requests` churn arrivals through the serving engine, or through the
/// reference loop with run()'s arrival recipe and fresh request ids.
Timed churn(std::int64_t requests, bool reference) {
  const ClusterConfig config = churn_config(requests);
  const RuntimeParams params = RuntimeParams::defaults();
  return {[=, sim = ClusterSimulator(config, params),
           backend = PodBackend(params)] {
    if (!reference) {
      bench::do_not_optimize(sim.run(backend, 1).completed);
      return;
    }
    Rng rng(config.seed);
    ArrivalGenerator gen(config.arrivals, config.offered_rps, rng.split());
    const std::vector<TimeMs> times = gen.generate(config.horizon_ms);
    bench::do_not_optimize(
        sim.run_prepared_reference(backend, 1, times,
                                   obs::mint_request_ids(times.size()))
            .completed);
  }};
}

[[maybe_unused]] const bool registered = [] {
  const bench::Shape sizes{{1024, 4096, 16384, 65536}, /*ms=*/true};
  // Typed-event hot path: slab-backed POD events, O(1) cancellation, lazy
  // queue tombstones — zero steady-state allocations per request.
  bench::RegisterBenchmark(
      "BM_ClusterRun", [](std::int64_t n) { return churn(n, false); }, sizes);
  // Closure-era reference loop: one std::function per scheduled event,
  // hash-set cancellation, O(Q) find-and-erase on every queued timeout.
  bench::RegisterBenchmark(
      "BM_ClusterRunReference", [](std::int64_t n) { return churn(n, true); },
      sizes);
  return true;
}();

}  // namespace

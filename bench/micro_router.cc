// Router-policy micro-benchmark (bench/harness.h): the five placement
// policies of the sharded serving loop under the skewed load that
// separates them — lock-step bursts against a keep-alive that barely
// outlives one burst gap, so placement decides whether instances are
// still warm when the next burst lands. Each entry reports the run's
// cold_starts / p95_ms / completed as counters for the micro_router row
// of scripts/bench_guard.py.
#include <cstdint>
#include <memory>
#include <string>

#include "common/rng.h"
#include "harness.h"
#include "platform/cluster.h"
#include "platform/router.h"

namespace {

using namespace chiron;

/// Constant-latency, allocation-free backend sized so every node fits
/// exactly four instances: a 10-request burst overflows any single node,
/// forcing the router's spread-vs-concentrate trade-off.
class PodBackend : public Backend {
 public:
  explicit PodBackend(const RuntimeParams& params) {
    usage_.cpus = static_cast<double>(params.node_cpus) / 4.0;
    usage_.memory_mb = 0.0;
  }
  std::string name() const override { return "pod"; }
  RunResult run(Rng&) const override {
    RunResult r;
    r.e2e_latency_ms = 30.0;
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  ResourceUsage usage_;
};

/// The skewed-load scenario (mirrored behaviorally by
/// ClusterTest.WarmAffinityBeatsRandomOnColdStarts): eight nodes, bursts
/// of 10 every ~167 ms, 250 ms keep-alive. Locality-aware placement
/// keeps a couple of nodes persistently warm; oblivious spreading lets
/// instances expire between hits.
ClusterConfig bursty_config(RouterPolicy policy) {
  ClusterConfig config;
  config.nodes = 8;
  config.router = policy;
  config.arrivals = ArrivalKind::kBurst;
  config.offered_rps = 60.0;
  config.keep_alive_ms = 250.0;
  config.horizon_ms = 20000.0;
  config.seed = 42;
  return config;
}

[[maybe_unused]] const bool registered = [] {
  for (const auto& [name, policy] :
       {std::pair{"round_robin", RouterPolicy::kRoundRobin},
        std::pair{"random", RouterPolicy::kRandom},
        std::pair{"least_outstanding", RouterPolicy::kLeastOutstanding},
        std::pair{"power_of_two", RouterPolicy::kPowerOfTwo},
        std::pair{"warm_affinity", RouterPolicy::kWarmAffinity}}) {
    bench::RegisterBenchmark(
        std::string("BM_RouterPolicy/") + name,
        [policy = policy](std::int64_t) {
          const RuntimeParams params = RuntimeParams::defaults();
          auto result = std::make_shared<ClusterResult>();
          return bench::Timed{
              [result, sim = ClusterSimulator(bursty_config(policy), params),
               backend = PodBackend(params)] { *result = sim.run(backend, 1); },
              [result] {
                return bench::Counters{
                    {"cold_starts", static_cast<double>(result->cold_starts)},
                    {"p95_ms", result->p95_ms},
                    {"completed", static_cast<double>(result->completed)}};
              }};
        },
        {{}, /*ms=*/true});
  }
  return true;
}();

}  // namespace

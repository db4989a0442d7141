// Router-policy micro-benchmark (google-benchmark): the five placement
// policies of the sharded serving loop under the skewed load that
// separates them — lock-step bursts against a keep-alive that barely
// outlives one burst gap, so placement decides whether instances are
// still warm when the next burst lands. Each benchmark exports the
// run's cold_starts / p95_ms / completed as counters;
// scripts/bench_guard.py folds them into BENCH_deploy.json
// ("router_policies") and asserts warm-affinity beats random by 2x on
// cold starts.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "common/rng.h"
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

void BM_RouterPolicy(benchmark::State& state, RouterPolicy policy) {
  const ClusterConfig config = bursty_config(policy);
  const RuntimeParams params = RuntimeParams::defaults();
  const PodBackend backend(params);
  const ClusterSimulator sim(config, params);
  ClusterResult result;
  for (auto _ : state) {
    result = sim.run(backend, 1);
    benchmark::DoNotOptimize(result.completed);
  }
  state.counters["cold_starts"] =
      static_cast<double>(result.cold_starts);
  state.counters["p95_ms"] = result.p95_ms;
  state.counters["completed"] = static_cast<double>(result.completed);
  state.SetItemsProcessed(static_cast<std::int64_t>(result.offered) *
                          static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK_CAPTURE(BM_RouterPolicy, round_robin, RouterPolicy::kRoundRobin)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouterPolicy, random, RouterPolicy::kRandom)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouterPolicy, least_outstanding,
                  RouterPolicy::kLeastOutstanding)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouterPolicy, power_of_two, RouterPolicy::kPowerOfTwo)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_RouterPolicy, warm_affinity, RouterPolicy::kWarmAffinity)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Windowed-engine scaling micro-benchmarks (bench/harness.h): the
// multi-node serving loop at sim_threads = 1 (the engine's own
// sequential schedule) against sim_threads = 4, in two regimes.
//
// * nodes8 / nodes32: healthy fleets under a stateless router — the
//   single-window regime where shards run embarrassingly parallel
//   between one routing pre-pass and one log merge. The fleet is
//   provisioned so requests mostly warm-reuse, and the backend burns a
//   short deterministic compute kernel per invocation so the per-event
//   cost resembles real service execution rather than a constant-return
//   stub.
// * faults8: the barrier-heavy shape of bench_e2e's faults_8node — 8
//   nodes, warm_affinity, burst arrivals, cold/crash/node faults and
//   retries — which cuts thousands of 8 ms windows of a few dozen routed
//   dispatches each. Those windows are too narrow to pay for a barrier,
//   so the engine runs them inline and 4 threads must cost no more than
//   1.
//
// Arrivals are generated once outside the timed region (run_prepared is
// the loop under test, not the arrival sampler). The guards on these
// numbers live in the micro_parallel row of scripts/bench_guard.py.
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "harness.h"
#include "platform/cluster.h"
#include "runtime/params.h"

namespace {

using namespace chiron;

/// Fixed-latency backend sized memory-only so every node hosts 128
/// instances (the fleet absorbs the offered load with warm reuse after
/// the initial scale-out) whose run() spins a short xorshift mix — a
/// stand-in for per-invocation runtime work that scales the
/// parallelizable fraction the way a real function body would.
class ComputeBackend : public Backend {
 public:
  explicit ComputeBackend(const RuntimeParams& params) {
    usage_.cpus = 0.0;
    usage_.memory_mb = params.node_memory_mb / 128.0;
  }
  std::string name() const override { return "compute"; }
  RunResult run(Rng& rng) const override {
    std::uint64_t x = rng.below(~0ull) | 1ull;
    for (int i = 0; i < 256; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    bench::do_not_optimize(x);
    RunResult r;
    r.e2e_latency_ms = 35.0;
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  ResourceUsage usage_;
};

/// ~`requests` arrivals over a fixed 20 s horizon on a healthy
/// `nodes`-node fleet: no faults and a stateless router, so the engine
/// derives one horizon-length window (the embarrassingly parallel
/// regime the sim_threads knob exists for).
ClusterConfig fleet_config(std::int64_t requests, std::size_t nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.router = RouterPolicy::kRoundRobin;
  config.horizon_ms = 20000.0;
  config.offered_rps = static_cast<double>(requests) / 20.0;
  config.keep_alive_ms = 10000.0;
  config.seed = 42;
  return config;
}

/// ~`requests` arrivals over 20 s in the faults_8node shape (8 nodes):
/// retries bound the window at the 8 ms backoff floor, warm_affinity
/// routes at every barrier, and node crashes cut windows — ~2.5k windows
/// of ~40 routed dispatches each at 96k requests.
ClusterConfig faults_config(std::int64_t requests, std::size_t nodes) {
  ClusterConfig config;
  config.nodes = nodes;
  config.router = RouterPolicy::kWarmAffinity;
  config.arrivals = ArrivalKind::kBurst;
  config.horizon_ms = 20000.0;
  config.offered_rps = static_cast<double>(requests) / 20.0;
  config.keep_alive_ms = 1000.0;
  config.faults.cold_start_failure = 0.02;
  config.faults.crash = 0.02;
  config.faults.node_crash = 0.25;
  config.faults.seed = 42;
  config.retry.max_attempts = 6;
  config.retry.timeout_ms = 1000.0;
  config.seed = 42;
  return config;
}

using ConfigFn = ClusterConfig (*)(std::int64_t requests, std::size_t nodes);

/// The engine at `sim_threads` on ~`requests` arrivals of `make`'s
/// scenario on `nodes` nodes.
bench::Timed run_engine(ConfigFn make, std::size_t nodes,
                        std::int64_t requests, std::size_t sim_threads) {
  ClusterConfig config = make(requests, nodes);
  config.sim_threads = sim_threads;
  const RuntimeParams params = RuntimeParams::defaults();
  Rng rng(config.seed);
  ArrivalGenerator gen(config.arrivals, config.offered_rps, rng.split());
  return {[arrivals = gen.generate(config.horizon_ms),
           sim = ClusterSimulator(config, params),
           backend = ComputeBackend(params)] {
    bench::do_not_optimize(sim.run_prepared(backend, 1, arrivals, 1).completed);
  }};
}

[[maybe_unused]] const bool registered = [] {
  const std::vector<std::int64_t> fleet_sizes = {65536, 262144, 1048576};
  for (const auto& [scenario, make, nodes, sizes] :
       {std::tuple{"nodes8", &fleet_config, 8, fleet_sizes},
        std::tuple{"nodes32", &fleet_config, 32, fleet_sizes},
        std::tuple{"faults8", &faults_config, 8,
                   std::vector<std::int64_t>{96000}}}) {
    // The engine's own sequential schedule (sim_threads = 1), the
    // baseline every parallel execution replays bit-for-bit, then the
    // same schedule driven by 4 window workers.
    for (const auto& [kind, threads] :
         {std::pair{"Sharded", 1}, std::pair{"Parallel", 4}}) {
      bench::RegisterBenchmark(
          std::string("BM_ClusterRun") + kind + "/" + scenario,
          [make = make, nodes = nodes, threads = threads](std::int64_t n) {
            return run_engine(make, nodes, n, threads);
          },
          {sizes, /*ms=*/true, /*real_time=*/true});
    }
  }
  return true;
}();

}  // namespace

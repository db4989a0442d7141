// Fault-layer micro-benchmarks (google-benchmark): the cost of a fault
// decision roll, and closed-loop cluster throughput with the recovery
// machinery armed versus healthy. The healthy/faulty pair, recorded raw
// in BENCH_deploy.json by scripts/bench_guard.py, bounds what the
// per-request ReqState tracking, timeout events, and retry bookkeeping
// cost the simulator.
#include <benchmark/benchmark.h>

#include "fault/fault.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "workflow/benchmarks.h"

namespace {

using namespace chiron;

SystemOptions quiet_options() {
  SystemOptions opts;
  opts.noise.jitter_sigma = 0.0;
  opts.noise.thread_contention = 0.0;
  opts.noise.run_sigma = 0.0;
  return opts;
}

ClusterConfig load_config() {
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 4000.0;
  config.offered_rps = 50.0;
  return config;
}

void BM_FaultInjectorRoll(benchmark::State& state) {
  FaultSpec spec;
  spec.crash = 0.1;
  const FaultInjector injector(spec);
  std::uint64_t entity = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.roll(FaultKind::kCrash, entity++, 1));
  }
}
BENCHMARK(BM_FaultInjectorRoll);

void BM_ClusterHealthy(benchmark::State& state) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterSimulator sim(load_config(), opts.params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(*backend, 1).completed);
  }
}
BENCHMARK(BM_ClusterHealthy)->Unit(benchmark::kMillisecond);

void BM_ClusterFaultyWithRecovery(benchmark::State& state) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config = load_config();
  config.faults.cold_start_failure = 0.05;
  config.faults.crash = 0.1;
  config.faults.straggler = 0.1;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 1500.0;
  ClusterSimulator sim(config, opts.params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(*backend, 1).completed);
  }
}
BENCHMARK(BM_ClusterFaultyWithRecovery)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

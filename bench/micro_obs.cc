// Observability micro-benchmarks (google-benchmark): the raw cost of one
// flight-recorder record (hot, contended, and disabled), and closed-loop
// cluster throughput with the recorder attached versus detached. The
// attached/detached pair is what scripts/bench_guard.py folds into
// BENCH_deploy.json's recorder_overhead: the bar is recorder-on within
// 5% of recorder-off for the simulated deploy path.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "obs/recorder.h"
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
  config.faults.crash = 0.05;
  config.faults.straggler = 0.05;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 1500.0;
  return config;
}

void BM_RecorderRecord(benchmark::State& state) {
  obs::FlightRecorder rec(1 << 14);
  rec.set_enabled(true);
  std::uint64_t id = 0;
  for (auto _ : state) {
    rec.record(obs::RecKind::kMark, ++id, 1, 0.0, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderRecord);

void BM_RecorderRecordDisabled(benchmark::State& state) {
  // The always-on promise: a disabled recorder costs one atomic load.
  obs::FlightRecorder rec(1 << 14);
  std::uint64_t id = 0;
  for (auto _ : state) {
    rec.record(obs::RecKind::kMark, ++id, 1, 0.0, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderRecordDisabled);

void BM_RecorderRecordContended(benchmark::State& state) {
  // Striping keeps concurrent writers mostly off each other's locks.
  static obs::FlightRecorder rec(1 << 14);
  if (state.thread_index() == 0) rec.set_enabled(true);
  std::uint64_t id = static_cast<std::uint64_t>(state.thread_index()) << 32;
  for (auto _ : state) {
    rec.record(obs::RecKind::kMark, ++id, 1, 0.0, 1.0);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecorderRecordContended)->Threads(4);

void BM_ClusterRecorderOff(benchmark::State& state) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterSimulator sim(load_config(), opts.params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(*backend, 1).completed);
  }
}
BENCHMARK(BM_ClusterRecorderOff)->Unit(benchmark::kMillisecond);

void BM_ClusterRecorderOn(benchmark::State& state) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  obs::FlightRecorder rec(1 << 16);
  rec.set_enabled(true);
  ClusterConfig config = load_config();
  config.recorder = &rec;
  ClusterSimulator sim(config, opts.params);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run(*backend, 1).completed);
    rec.clear();  // keep the rings from saturating across iterations
  }
}
BENCHMARK(BM_ClusterRecorderOn)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Observability micro-benchmarks (bench/harness.h): the raw cost of one
// flight-recorder record, and closed-loop cluster throughput with the
// recorder attached versus detached, which scripts/bench_guard.py folds
// into recorder_overhead: recorder-on must stay within 5% of off.
#include <cstdint>
#include <memory>

#include "harness.h"
#include "obs/recorder.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "workflow/benchmarks.h"

namespace {

using namespace chiron;
using bench::Timed;

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

/// Closed-loop Faastlane SLApp cluster runs, with a flight recorder
/// attached when `record` is set.
Timed cluster_run(bool record) {
  const SystemOptions opts = quiet_options();
  std::shared_ptr<const Backend> backend =
      make_system("Faastlane", make_slapp(), opts);
  std::shared_ptr<obs::FlightRecorder> rec;
  ClusterConfig config = load_config();
  if (record) {
    rec = std::make_shared<obs::FlightRecorder>(1 << 16);
    rec->set_enabled(true);
    config.recorder = rec.get();
  }
  return {[=, sim = ClusterSimulator(config, opts.params)] {
    bench::do_not_optimize(sim.run(*backend, 1).completed);
    if (rec) rec->clear();  // keep the rings from saturating across runs
  }};
}

[[maybe_unused]] const bool registered = [] {
  bench::RegisterBenchmark("BM_RecorderRecord", [](std::int64_t) {
    auto rec = std::make_shared<obs::FlightRecorder>(1 << 14);
    rec->set_enabled(true);
    return Timed{[rec, id = std::uint64_t{0}]() mutable {
      rec->record(obs::RecKind::kMark, ++id, 1, 0.0, 1.0);
    }};
  });
  bench::RegisterBenchmark("BM_ClusterRecorderOff", [](std::int64_t) {
    return cluster_run(false);
  }, {{}, /*ms=*/true});
  bench::RegisterBenchmark("BM_ClusterRecorderOn", [](std::int64_t) {
    return cluster_run(true);
  }, {{}, /*ms=*/true});
  return true;
}();

}  // namespace

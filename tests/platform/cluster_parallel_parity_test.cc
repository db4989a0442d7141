// Cross-thread parity oracle for the windowed multi-node engine: a
// ClusterConfig that differs only in sim_threads must produce
// bit-identical ClusterResults. The engine's schedule is defined by the
// config alone — window widths, barrier routing order, per-node Rng
// streams, and the (time, node) log merge never consult the worker
// count — so equality is exact (EXPECT_EQ over every field, including
// the per-node breakdown), not approximate. The sweep deliberately
// draws the nasty edges: cold-start/crash storms with retries
// re-routing across nodes, node crashes draining queues through the
// router mid-run, tight timeouts racing retries, jitter == 1.0
// (degenerate zero backoff floor, exercising the transfer clamp), and
// every router policy.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "platform/systems.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

SystemOptions quiet_options() {
  SystemOptions opts;
  opts.noise.jitter_sigma = 0.0;
  opts.noise.thread_contention = 0.0;
  opts.noise.run_sigma = 0.0;
  return opts;
}

/// Allocation-free constant-latency backend with configurable resources.
class PodBackend : public Backend {
 public:
  PodBackend(TimeMs latency, ResourceUsage usage)
      : latency_(latency), usage_(usage) {}
  std::string name() const override { return "pod"; }
  RunResult run(Rng&) const override {
    RunResult r;
    r.e2e_latency_ms = latency_;
    return r;
  }
  ResourceUsage resources() const override { return usage_; }

 private:
  TimeMs latency_;
  ResourceUsage usage_;
};

std::vector<TimeMs> arrivals_for(const ClusterConfig& config) {
  Rng rng(config.seed);
  ArrivalGenerator arrivals(config.arrivals, config.offered_rps, rng.split());
  return arrivals.generate(config.horizon_ms);
}

/// One randomized multi-node configuration. Unlike the single-node parity
/// sweep this one always shards (nodes >= 2), arms node crashes, and
/// draws the retry jitter — including the exact 1.0 edge where the
/// backoff floor collapses to zero and every transfer is clamped to the
/// next barrier.
ClusterConfig random_config(Rng& rng, std::uint64_t case_seed) {
  ClusterConfig config;
  config.nodes = 2 + rng.below(5);
  config.horizon_ms = 1500.0 + rng.uniform(0.0, 2000.0);
  config.offered_rps = 5.0 + rng.uniform(0.0, 120.0);
  const TimeMs keep_alive_choices[] = {0.0, 5.0, 200.0, 10000.0};
  config.keep_alive_ms = keep_alive_choices[rng.below(4)];
  const ArrivalKind kinds[] = {ArrivalKind::kPoisson, ArrivalKind::kUniform,
                               ArrivalKind::kBurst};
  config.arrivals = kinds[rng.below(3)];
  config.seed = case_seed;
  if (rng.below(4) != 0) {  // 3 in 4 runs are faulted
    config.faults.cold_start_failure = rng.uniform(0.0, 0.3);
    config.faults.crash = rng.uniform(0.0, 0.3);
    config.faults.crash_point = rng.uniform(0.1, 0.9);
    config.faults.straggler = rng.uniform(0.0, 0.3);
    config.faults.straggler_multiplier = rng.uniform(2.0, 8.0);
    if (rng.below(2) != 0) {
      config.faults.node_crash = rng.uniform(0.2, 0.9);
    }
    config.faults.seed = rng();
  }
  config.retry.max_attempts = 1 + static_cast<std::uint32_t>(rng.below(4));
  switch (rng.below(4)) {
    case 0: config.retry.jitter = 0.0; break;
    case 1: config.retry.jitter = 1.0; break;  // zero backoff floor
    default: config.retry.jitter = rng.uniform(0.0, 0.8); break;
  }
  if (rng.below(3) == 0) config.retry.base_backoff_ms = 0.5;  // tiny windows
  if (rng.below(2) != 0) {
    config.retry.timeout_ms = rng.uniform(100.0, 1500.0);
  }
  return config;
}

TEST(ShardedParallelParityTest, ResultsAreBitIdenticalAcrossThreadCounts) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto system_backend = make_system("Faastlane", wf, opts);
  const RuntimeParams& params = opts.params;
  ResourceUsage fat;
  fat.cpus = static_cast<double>(params.node_cpus) / 2.0;
  fat.memory_mb = params.node_memory_mb / 2.0;
  ResourceUsage memory_only;
  memory_only.cpus = 0.0;
  memory_only.memory_mb = params.node_memory_mb / 3.0;
  const PodBackend tiny_capacity(45.0, fat);
  const PodBackend memory_bound(25.0, memory_only);
  const PodBackend zero_capacity(10.0, ResourceUsage{});
  const Backend* backends[] = {system_backend.get(), &tiny_capacity,
                               &memory_bound, &zero_capacity};
  const RouterPolicy policies[] = {
      RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
      RouterPolicy::kLeastOutstanding, RouterPolicy::kPowerOfTwo,
      RouterPolicy::kWarmAffinity};
  const char* counter_names[] = {
      "cluster.cold_starts",          "chiron.fault.injected",
      "chiron.fault.injected.crash",  "chiron.fault.injected.cold_start",
      "chiron.fault.injected.node_crash", "chiron.retry.attempts",
      "chiron.request.timeout",       "cluster.sim.transfers",
      "cluster.sim.barrier_routed"};

  Rng meta(0x9A7A11E1);
  int nonempty = 0;
  int with_transfers = 0;
  for (int i = 0; i < 42; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(i));
    ClusterConfig base_draw = random_config(meta, 0xFA57EE00 + i);
    const Backend& backend = *backends[i % 4];
    const std::size_t stages = 1 + (i % 3);
    const std::vector<TimeMs> arrivals = arrivals_for(base_draw);
    const std::uint64_t id_base = 90000 + 1000 * static_cast<std::uint64_t>(i);
    for (const RouterPolicy policy : policies) {
    SCOPED_TRACE(std::string("policy ") + to_string(policy));
    ClusterConfig config = base_draw;
    config.router = policy;

    // sim_threads == 1 is the engine's own sequential schedule — the
    // reference every parallel execution must replay exactly.
    obs::MetricsRegistry base_metrics;
    ClusterConfig base_config = config;
    base_config.sim_threads = 1;
    base_config.metrics = &base_metrics;
    const ClusterResult base =
        ClusterSimulator(base_config, params)
            .run_prepared(backend, stages, arrivals, id_base);
    EXPECT_LE(base.completed + base.timed_out + base.dropped, base.offered);
    if (base.offered > 0) ++nonempty;
    if (base_metrics.counter("cluster.sim.transfers").value() > 0) {
      ++with_transfers;
    }

    for (const std::size_t threads : {2u, 4u, 8u}) {
      SCOPED_TRACE("sim_threads " + std::to_string(threads));
      obs::MetricsRegistry metrics;
      ClusterConfig par_config = config;
      par_config.sim_threads = threads;
      par_config.metrics = &metrics;
      const ClusterResult parallel =
          ClusterSimulator(par_config, params)
              .run_prepared(backend, stages, arrivals, id_base);
      EXPECT_EQ(parallel, base);  // exact: every field, incl. node_results
      ASSERT_EQ(parallel.node_results.size(), config.nodes);
      for (std::size_t k = 0; k < config.nodes; ++k) {
        EXPECT_EQ(parallel.node_results[k], base.node_results[k]) << k;
      }
      // The metric deltas this run produced must also be thread-count
      // independent (both registries start empty, so values are deltas).
      for (const char* name : counter_names) {
        EXPECT_EQ(metrics.counter(name).value(),
                  base_metrics.counter(name).value())
            << name;
      }
      EXPECT_DOUBLE_EQ(metrics.gauge("cluster.queue_depth").high_water(),
                       base_metrics.gauge("cluster.queue_depth").high_water());
      EXPECT_DOUBLE_EQ(metrics.gauge("cluster.queue_depth").high_water(),
                       static_cast<double>(parallel.peak_queue));
      EXPECT_DOUBLE_EQ(metrics.gauge("cluster.peak_instances").value(),
                       static_cast<double>(parallel.peak_instances));
    }
    }
  }
  EXPECT_GT(nonempty, 180);  // the sweep actually exercised the engine
  // The sweep must have exercised cross-node traffic, not just the
  // single-window fast path.
  EXPECT_GT(with_transfers, 10);
}

TEST(ShardedParallelParityTest, ExplicitWindowWidthPreservesParity) {
  // A stateful router with retries and a node crash: the derived window
  // width is the backoff floor capped by the router-fidelity width, and
  // the crash cuts a window. Parity across thread counts must hold over
  // the resulting many-barrier schedule.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config;
  config.nodes = 4;
  config.router = RouterPolicy::kWarmAffinity;
  config.horizon_ms = 4000.0;
  config.offered_rps = 60.0;
  config.faults.cold_start_failure = 0.1;
  config.faults.crash = 0.1;
  config.faults.node_crash = 0.5;
  config.faults.seed = 7;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 900.0;
  const std::vector<TimeMs> arrivals = arrivals_for(config);

  ClusterConfig base_config = config;
  base_config.sim_threads = 1;
  const ClusterResult base = ClusterSimulator(base_config, opts.params)
                                 .run_prepared(*backend, 1, arrivals, 41);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ClusterConfig par_config = base_config;
    par_config.sim_threads = threads;
    const ClusterResult parallel =
        ClusterSimulator(par_config, opts.params)
            .run_prepared(*backend, 1, arrivals, 41);
    EXPECT_EQ(parallel, base) << "threads " << threads;
  }
}

TEST(ShardedParallelParityTest, ZeroSimThreadsMeansAutoAndKeepsParity) {
  // sim_threads == 0 resolves to the hardware concurrency; results must
  // still match the single-thread schedule bit-for-bit.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config;
  config.nodes = 6;
  config.router = RouterPolicy::kPowerOfTwo;
  config.horizon_ms = 3000.0;
  config.offered_rps = 80.0;
  config.faults.crash = 0.2;
  config.faults.seed = 3;
  config.retry.max_attempts = 2;
  const std::vector<TimeMs> arrivals = arrivals_for(config);

  ClusterConfig base_config = config;
  base_config.sim_threads = 1;
  const ClusterResult base = ClusterSimulator(base_config, opts.params)
                                 .run_prepared(*backend, 1, arrivals, 17);
  ClusterConfig auto_config = config;
  auto_config.sim_threads = 0;
  const ClusterResult parallel = ClusterSimulator(auto_config, opts.params)
                                     .run_prepared(*backend, 1, arrivals, 17);
  EXPECT_EQ(parallel, base);
}

}  // namespace
}  // namespace chiron

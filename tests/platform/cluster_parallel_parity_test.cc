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

/// A high-rate draw: thousands of rps over a short horizon, always
/// faulted, with retry backoffs wide enough that many windows route a
/// barrier's worth of dispatches. Within one run some windows fan out to
/// the workers while others — stateful-capped, crash-cut, drained at the
/// tail, or in a Poisson trough — run inline on the coordinator, so
/// transfers and node-crash queue drains can land in either kind.
ClusterConfig random_high_rate_config(Rng& rng, std::uint64_t case_seed) {
  ClusterConfig config;
  config.nodes = 2 + rng.below(7);
  config.horizon_ms = 300.0 + rng.uniform(0.0, 400.0);
  config.offered_rps = 2000.0 + rng.uniform(0.0, 28000.0);
  const TimeMs keep_alive_choices[] = {0.0, 5.0, 200.0, 10000.0};
  config.keep_alive_ms = keep_alive_choices[rng.below(4)];
  const ArrivalKind kinds[] = {ArrivalKind::kPoisson, ArrivalKind::kUniform,
                               ArrivalKind::kBurst};
  config.arrivals = kinds[rng.below(3)];
  config.seed = case_seed;
  config.faults.cold_start_failure = rng.uniform(0.0, 0.2);
  config.faults.crash = rng.uniform(0.0, 0.2);
  config.faults.crash_point = rng.uniform(0.1, 0.9);
  config.faults.straggler = rng.uniform(0.0, 0.3);
  config.faults.straggler_multiplier = rng.uniform(2.0, 8.0);
  config.faults.node_crash = rng.uniform(0.3, 0.9);
  config.faults.seed = rng();
  config.retry.max_attempts = 2 + static_cast<std::uint32_t>(rng.below(3));
  config.retry.jitter = rng.uniform(0.0, 0.5);
  config.retry.base_backoff_ms = rng.uniform(20.0, 120.0);
  if (rng.below(2) != 0) {
    config.retry.timeout_ms = rng.uniform(100.0, 600.0);
  }
  return config;
}

/// Runs `config` at sim_threads 1 (the engine's own sequential schedule —
/// the reference every parallel execution must replay exactly) and
/// asserts that 2/4/8 threads reproduce its result and metric deltas
/// exactly. Fills `base` and `base_metrics` from the one-thread run.
void expect_thread_parity(const ClusterConfig& config,
                          const RuntimeParams& params, const Backend& backend,
                          std::size_t stages,
                          const std::vector<TimeMs>& arrivals,
                          std::uint64_t id_base, ClusterResult* base,
                          obs::MetricsRegistry* base_metrics) {
  const char* counter_names[] = {
      "cluster.cold_starts",          "chiron.fault.injected",
      "chiron.fault.injected.crash",  "chiron.fault.injected.cold_start",
      "chiron.fault.injected.node_crash", "chiron.retry.attempts",
      "chiron.request.timeout",       "cluster.sim.transfers",
      "cluster.sim.barrier_routed",   "cluster.sim.windows",
      "cluster.sim.fanout_windows"};
  ClusterConfig base_config = config;
  base_config.sim_threads = 1;
  base_config.metrics = base_metrics;
  *base = ClusterSimulator(base_config, params)
              .run_prepared(backend, stages, arrivals, id_base);
  // Per-node conservation: every completion, cold start and node crash is
  // counted on exactly one node, whichever half of the engine saw it.
  ASSERT_EQ(base->node_results.size(), config.nodes);
  std::size_t completed = 0;
  std::size_t cold_starts = 0;
  std::size_t node_crashes = 0;
  for (const NodeResult& nr : base->node_results) {
    completed += nr.completed;
    cold_starts += nr.cold_starts;
    node_crashes += nr.node_crashes;
  }
  EXPECT_EQ(completed, base->completed);
  EXPECT_EQ(cold_starts, base->cold_starts);
  EXPECT_EQ(node_crashes, base->node_crashes);

  for (const std::size_t threads : {2u, 4u, 8u}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    obs::MetricsRegistry metrics;
    ClusterConfig par_config = config;
    par_config.sim_threads = threads;
    par_config.metrics = &metrics;
    const ClusterResult parallel =
        ClusterSimulator(par_config, params)
            .run_prepared(backend, stages, arrivals, id_base);
    EXPECT_EQ(parallel, *base);  // exact: every field, incl. node_results
    ASSERT_EQ(parallel.node_results.size(), config.nodes);
    for (std::size_t k = 0; k < config.nodes; ++k) {
      EXPECT_EQ(parallel.node_results[k], base->node_results[k]) << k;
    }
    // The metric deltas this run produced must also be thread-count
    // independent (both registries start empty, so values are deltas).
    for (const char* name : counter_names) {
      EXPECT_EQ(metrics.counter(name).value(),
                base_metrics->counter(name).value())
          << name;
    }
    EXPECT_DOUBLE_EQ(metrics.gauge("cluster.queue_depth").high_water(),
                     base_metrics->gauge("cluster.queue_depth").high_water());
    EXPECT_DOUBLE_EQ(metrics.gauge("cluster.queue_depth").high_water(),
                     static_cast<double>(parallel.peak_queue));
    EXPECT_DOUBLE_EQ(metrics.gauge("cluster.peak_instances").value(),
                     static_cast<double>(parallel.peak_instances));
  }
}

/// The backends both randomized sweeps cycle through: a live plan and
/// three constant-latency shapes (tight, memory-bound, zero capacity).
struct SweepBackends {
  explicit SweepBackends(const SystemOptions& opts)
      : wf(make_slapp()),
        system_backend(make_system("Faastlane", wf, opts)),
        tiny_capacity(45.0, fat(opts.params)),
        memory_bound(25.0, memory_only(opts.params)),
        zero_capacity(10.0, ResourceUsage{}) {}

  const Backend& at(int i) const {
    const Backend* all[] = {system_backend.get(), &tiny_capacity,
                            &memory_bound, &zero_capacity};
    return *all[i % 4];
  }

  static ResourceUsage fat(const RuntimeParams& params) {
    ResourceUsage usage;
    usage.cpus = static_cast<double>(params.node_cpus) / 2.0;
    usage.memory_mb = params.node_memory_mb / 2.0;
    return usage;
  }
  static ResourceUsage memory_only(const RuntimeParams& params) {
    ResourceUsage usage;
    usage.cpus = 0.0;
    usage.memory_mb = params.node_memory_mb / 3.0;
    return usage;
  }

  Workflow wf;
  std::unique_ptr<Backend> system_backend;
  PodBackend tiny_capacity;
  PodBackend memory_bound;
  PodBackend zero_capacity;
};

constexpr RouterPolicy kPolicies[] = {
    RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
    RouterPolicy::kLeastOutstanding, RouterPolicy::kPowerOfTwo,
    RouterPolicy::kWarmAffinity};

TEST(ShardedParallelParityTest, ResultsAreBitIdenticalAcrossThreadCounts) {
  const SystemOptions opts = quiet_options();
  const SweepBackends backends(opts);

  Rng meta(0x9A7A11E1);
  int nonempty = 0;
  int with_transfers = 0;
  for (int i = 0; i < 42; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(i));
    ClusterConfig base_draw = random_config(meta, 0xFA57EE00 + i);
    const Backend& backend = backends.at(i);
    const std::size_t stages = 1 + (i % 3);
    const std::vector<TimeMs> arrivals = arrivals_for(base_draw);
    const std::uint64_t id_base = 90000 + 1000 * static_cast<std::uint64_t>(i);
    for (const RouterPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string("policy ") + to_string(policy));
      ClusterConfig config = base_draw;
      config.router = policy;
      ClusterResult base;
      obs::MetricsRegistry base_metrics;
      ASSERT_NO_FATAL_FAILURE(expect_thread_parity(config, opts.params,
                                                   backend, stages, arrivals,
                                                   id_base, &base,
                                                   &base_metrics));
      EXPECT_LE(base.completed + base.timed_out + base.dropped, base.offered);
      if (base.offered > 0) ++nonempty;
      if (base_metrics.counter("cluster.sim.transfers").value() > 0) {
        ++with_transfers;
      }
    }
  }
  EXPECT_GT(nonempty, 180);  // the sweep actually exercised the engine
  // The sweep must have exercised cross-node traffic, not just the
  // single-window fast path.
  EXPECT_GT(with_transfers, 10);
}

TEST(ShardedParallelParityTest, HighRateMixesFannedOutAndInlineWindows) {
  // The low-rate sweep above routes a few dispatches per window, so
  // nearly all of its windows run inline on the coordinator. At thousands
  // of rps the barrier path carries real traffic: this sweep must hand
  // windows to the workers, keep others inline, and move transfers
  // through both — with every result still exact across thread counts.
  const SystemOptions opts = quiet_options();
  const SweepBackends backends(opts);

  Rng meta(0x41E4A7E5);
  std::int64_t total_windows = 0;
  std::int64_t total_fanout = 0;
  std::int64_t total_transfers = 0;
  int mixed_runs = 0;
  for (int i = 0; i < 6; ++i) {
    SCOPED_TRACE("high-rate case " + std::to_string(i));
    ClusterConfig base_draw = random_high_rate_config(meta, 0xB16B0000 + i);
    const Backend& backend = backends.at(i);
    const std::vector<TimeMs> arrivals = arrivals_for(base_draw);
    const std::uint64_t id_base = 500000 + 100000 * static_cast<std::uint64_t>(i);
    for (const RouterPolicy policy : kPolicies) {
      SCOPED_TRACE(std::string("policy ") + to_string(policy));
      ClusterConfig config = base_draw;
      config.router = policy;
      ClusterResult base;
      obs::MetricsRegistry base_metrics;
      ASSERT_NO_FATAL_FAILURE(expect_thread_parity(config, opts.params,
                                                   backend, 1, arrivals,
                                                   id_base, &base,
                                                   &base_metrics));
      EXPECT_LE(base.completed + base.timed_out + base.dropped, base.offered);
      const std::int64_t windows =
          base_metrics.counter("cluster.sim.windows").value();
      const std::int64_t fanout =
          base_metrics.counter("cluster.sim.fanout_windows").value();
      total_windows += windows;
      total_fanout += fanout;
      total_transfers += base_metrics.counter("cluster.sim.transfers").value();
      if (fanout > 0 && fanout < windows) ++mixed_runs;
    }
  }
  EXPECT_GT(total_fanout, 0);
  EXPECT_LT(total_fanout, total_windows);
  EXPECT_GT(total_transfers, 0);
  EXPECT_GT(mixed_runs, 0);
}

TEST(ShardedParallelParityTest, ExplicitWindowWidthPreservesParity) {
  // A stateful router with retries and a node crash: the derived window
  // width is the backoff floor capped by the router-fidelity width, and
  // the crash cuts a window. Parity across thread counts must hold over
  // the resulting many-barrier schedule. The rate routes a few hundred
  // dispatches into each 8 ms window, so windows fan out to the workers.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config;
  config.nodes = 4;
  config.router = RouterPolicy::kWarmAffinity;
  config.horizon_ms = 1000.0;
  config.offered_rps = 40000.0;
  config.faults.cold_start_failure = 0.1;
  config.faults.crash = 0.1;
  config.faults.node_crash = 0.5;
  config.faults.seed = 7;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 900.0;
  const std::vector<TimeMs> arrivals = arrivals_for(config);

  ClusterConfig base_config = config;
  base_config.sim_threads = 1;
  obs::MetricsRegistry base_metrics;
  base_config.metrics = &base_metrics;
  const ClusterResult base = ClusterSimulator(base_config, opts.params)
                                 .run_prepared(*backend, 1, arrivals, 41);
  EXPECT_GT(base_metrics.counter("cluster.sim.fanout_windows").value(), 0);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    ClusterConfig par_config = base_config;
    par_config.sim_threads = threads;
    par_config.metrics = nullptr;
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

// Parity oracle for the serving engine: the windowed engine at nodes == 1
// (ClusterSimulator::run_prepared) must produce bit-identical
// ClusterResults to the retired closure-based loop
// (run_prepared_reference) — same (time, seq) FIFO event order means the
// same RNG draw sequence and the same float arithmetic, so equality is
// exact, not approximate (the run_slow_reference pattern the interleave
// kernels established), whatever the router policy. The reference pools
// k nodes into one capacity, so the engine runs one node scaled to k
// nodes' resources against it. ShardedParallelParityTest carries the
// chain on to any node and thread count.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "platform/cluster.h"
#include "platform/plan_backend.h"
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

/// Allocation-free constant-latency backend with configurable resources —
/// lets the parity sweep hit zero-capacity and memory-only edges.
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

/// Serves `inner` through its run() alone, so the engines reach it
/// through the default Backend::latency().
class RunOnlyBackend : public Backend {
 public:
  explicit RunOnlyBackend(const Backend& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  RunResult run(Rng& rng) const override { return inner_.run(rng); }
  ResourceUsage resources() const override { return inner_.resources(); }

 private:
  const Backend& inner_;
};

/// Pre-generates the arrival process exactly as ClusterSimulator::run()
/// does, so both loops consume byte-identical inputs (and the same
/// request-id base, which ClusterResult::operator== compares).
std::vector<TimeMs> arrivals_for(const ClusterConfig& config) {
  Rng rng(config.seed);
  ArrivalGenerator arrivals(config.arrivals, config.offered_rps, rng.split());
  return arrivals.generate(config.horizon_ms);
}

/// run() through the reference loop: the same arrivals recipe and a
/// freshly minted request-id block.
ClusterResult run_reference(const ClusterConfig& config,
                            const RuntimeParams& params,
                            const Backend& backend, std::size_t stages) {
  const std::vector<TimeMs> arrivals = arrivals_for(config);
  return ClusterSimulator(config, params)
      .run_prepared_reference(backend, stages, arrivals,
                              obs::mint_request_ids(arrivals.size()));
}

/// One engine node holding the resources the reference pools across
/// config.nodes: the same products the reference's cluster capacity
/// computes, so the two capacities are float-identical.
ClusterConfig one_node(ClusterConfig config) {
  config.nodes = 1;
  return config;
}
RuntimeParams pooled_params(RuntimeParams params, std::size_t nodes) {
  params.node_cpus *= nodes;
  params.node_memory_mb *= static_cast<double>(nodes);
  return params;
}

/// Draws one randomized cluster/fault/retry/timeout configuration. The
/// draw space deliberately includes the nasty edges: keep_alive == 0
/// (instant reaping), tight timeouts (deep-queue abandonment), crash and
/// cold-start storms, and retry exhaustion.
ClusterConfig random_config(Rng& rng, std::uint64_t case_seed) {
  ClusterConfig config;
  config.nodes = 1 + rng.below(3);
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
    config.faults.seed = rng();
  }
  config.retry.max_attempts = 1 + static_cast<std::uint32_t>(rng.below(4));
  if (rng.below(2) != 0) {
    config.retry.timeout_ms = rng.uniform(100.0, 1500.0);
  }
  return config;
}

TEST(ClusterParityTest, FastLoopIsBitIdenticalAcrossRandomizedConfigs) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto system_backend = make_system("Faastlane", wf, opts);
  // Edge backends: tiny capacity (forces deep queues), memory-only
  // capacity, and the zero-resource degenerate that clamps to one
  // instance.
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

  Rng meta(0x5EED5EED);
  int nonempty = 0;
  for (int i = 0; i < 60; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(i));
    const ClusterConfig config = random_config(meta, 0xC0FFEE00 + i);
    const Backend& backend = *backends[i % 4];
    const std::size_t stages = 1 + (i % 3);
    const std::vector<TimeMs> arrivals = arrivals_for(config);
    const std::uint64_t id_base = 1000 + static_cast<std::uint64_t>(i);

    const ClusterResult fast =
        ClusterSimulator(one_node(config), pooled_params(params, config.nodes))
            .run_prepared(backend, stages, arrivals, id_base);
    const ClusterResult reference =
        ClusterSimulator(config, params)
            .run_prepared_reference(backend, stages, arrivals, id_base);
    EXPECT_EQ(fast, reference);  // exact: every field, bitwise
    // Terminal counts never exceed admissions. (Not exact conservation:
    // with no timeout configured, requests still queued when the last
    // instance drops its final retry strand without a terminal count — a
    // semantic both loops share, inherited from the closure-era loop.)
    EXPECT_LE(fast.completed + fast.timed_out + fast.dropped, fast.offered);
    if (fast.offered > 0) ++nonempty;
  }
  EXPECT_GT(nonempty, 50);  // the sweep actually exercised the loop
}

TEST(ClusterParityTest, ShardedSingleNodeIsBitIdenticalToReference) {
  // The engine with one node must be the reference model, exactly: same
  // event order, same Rng draws, same float arithmetic. The router policy
  // must not matter — a lone node never consults the router.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto system_backend = make_system("Faastlane", wf, opts);
  const RuntimeParams& params = opts.params;
  ResourceUsage fat;
  fat.cpus = static_cast<double>(params.node_cpus) / 2.0;
  fat.memory_mb = params.node_memory_mb / 2.0;
  const PodBackend tiny_capacity(45.0, fat);
  const PodBackend zero_capacity(10.0, ResourceUsage{});
  const Backend* backends[] = {system_backend.get(), &tiny_capacity,
                               &zero_capacity};
  const RouterPolicy policies[] = {
      RouterPolicy::kRoundRobin, RouterPolicy::kRandom,
      RouterPolicy::kLeastOutstanding, RouterPolicy::kPowerOfTwo,
      RouterPolicy::kWarmAffinity};

  Rng meta(0x0DDC0DE);
  int nonempty = 0;
  for (int i = 0; i < 40; ++i) {
    SCOPED_TRACE("randomized case " + std::to_string(i));
    ClusterConfig config = random_config(meta, 0xBEEF00 + i);
    config.nodes = 1;  // the engine must degenerate to the reference
    config.router = policies[i % 5];
    const Backend& backend = *backends[i % 3];
    const std::size_t stages = 1 + (i % 3);
    const std::vector<TimeMs> arrivals = arrivals_for(config);
    const std::uint64_t id_base = 5000 + static_cast<std::uint64_t>(i);

    const ClusterSimulator sim(config, params);
    const ClusterResult sharded =
        sim.run_prepared(backend, stages, arrivals, id_base);
    const ClusterResult reference =
        sim.run_prepared_reference(backend, stages, arrivals, id_base);
    EXPECT_EQ(sharded, reference);  // exact: every field, bitwise
    ASSERT_EQ(sharded.node_results.size(), 1u);
    if (sharded.offered > 0) ++nonempty;
  }
  EXPECT_GT(nonempty, 35);  // the sweep actually exercised the loop
}

TEST(ClusterParityTest, MetricsAgreeBetweenLoops) {
  // The engine flushes per-kind fault counters once at teardown; the
  // reference builds the registry key per event. Same totals must land in
  // the registry either way.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 5000.0;
  config.offered_rps = 40.0;
  config.faults.cold_start_failure = 0.1;
  config.faults.crash = 0.15;
  config.faults.straggler = 0.12;
  config.faults.seed = 99;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 1200.0;
  const std::vector<TimeMs> arrivals = arrivals_for(config);

  obs::MetricsRegistry fast_metrics;
  obs::MetricsRegistry ref_metrics;
  ClusterConfig fast_config = config;
  fast_config.metrics = &fast_metrics;
  ClusterConfig ref_config = config;
  ref_config.metrics = &ref_metrics;

  const ClusterResult fast =
      ClusterSimulator(one_node(fast_config),
                       pooled_params(opts.params, config.nodes))
          .run_prepared(*backend, 1, arrivals, 7);
  const ClusterResult reference =
      ClusterSimulator(ref_config, opts.params)
          .run_prepared_reference(*backend, 1, arrivals, 7);
  EXPECT_EQ(fast, reference);
  ASSERT_GT(fast.failed, 0u);

  for (const char* name :
       {"chiron.fault.injected", "chiron.fault.injected.cold_start",
        "chiron.fault.injected.crash", "chiron.fault.injected.straggler",
        "chiron.retry.attempts", "chiron.request.timeout",
        "cluster.cold_starts"}) {
    EXPECT_EQ(fast_metrics.counter(name).value(),
              ref_metrics.counter(name).value())
        << name;
  }
  EXPECT_DOUBLE_EQ(fast_metrics.gauge("cluster.queue_depth").high_water(),
                   ref_metrics.gauge("cluster.queue_depth").high_water());
  EXPECT_DOUBLE_EQ(fast_metrics.gauge("cluster.queue_depth").high_water(),
                   static_cast<double>(fast.peak_queue));
}

TEST(ClusterParityTest, PublicRunMatchesPreparedFastLoop) {
  // run() is a thin wrapper over run_prepared: same config, same arrivals
  // recipe — everything but the process-global id base must agree.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 4000.0;
  config.offered_rps = 30.0;
  config.faults.crash = 0.1;
  config.retry.max_attempts = 2;
  config.retry.timeout_ms = 900.0;
  const ClusterSimulator sim(config, opts.params);
  ClusterResult via_run = sim.run(*backend, 1);
  ClusterResult prepared =
      sim.run_prepared(*backend, 1, arrivals_for(config), via_run.request_id_base);
  EXPECT_EQ(via_run, prepared);
  // And the reference helper wraps the reference loop the same way.
  ClusterResult via_ref = run_reference(config, opts.params, *backend, 1);
  ClusterResult prepared_ref = sim.run_prepared_reference(
      *backend, 1, arrivals_for(config), via_ref.request_id_base);
  EXPECT_EQ(via_ref, prepared_ref);
}

// The engines serve Backend::latency(), which a live WrapPlanBackend
// answers without building timelines. Serving it must give the same
// ClusterResult as serving it through run(): on the windowed engine at 1
// and 4 sim threads, and on the reference loop.
TEST(ClusterParityTest, LivePlanBackendServesTheSameThroughLatency) {
  const Workflow wf = make_finra(5);
  const RuntimeParams& params = RuntimeParams::defaults();
  const WrapPlanBackend live("live", params, wf, faastlane_plan(wf));
  const RunOnlyBackend run_only(live);
  ClusterConfig config;
  config.nodes = 4;
  config.router = RouterPolicy::kLeastOutstanding;
  config.offered_rps = 150.0;
  config.horizon_ms = 3000.0;
  config.seed = 29;
  config.faults.crash = 0.05;
  config.faults.straggler = 0.1;
  config.faults.seed = 29;
  config.retry.max_attempts = 3;
  const std::vector<TimeMs> arrivals = arrivals_for(config);
  const std::uint64_t id_base = obs::mint_request_ids(arrivals.size());
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    config.sim_threads = threads;
    const ClusterSimulator sim(config, params);
    const ClusterResult served = sim.run_prepared(live, 1, arrivals, id_base);
    EXPECT_GT(served.completed, 100u);
    EXPECT_EQ(served, sim.run_prepared(run_only, 1, arrivals, id_base));
  }
  const ClusterSimulator sim(config, params);
  EXPECT_EQ(sim.run_prepared_reference(live, 1, arrivals, id_base),
            sim.run_prepared_reference(run_only, 1, arrivals, id_base));
}

}  // namespace
}  // namespace chiron

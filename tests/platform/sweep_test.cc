// Scenario-sweep engine tests: ClusterSimulator::run_batch must produce
// per-seed results that are bit-identical whatever the worker count, and
// its aggregates must be exactly the fold of the per-seed runs.
//
// These tests are in the TSan subset (check.sh matches "Sweep"): the
// batch path runs many simulations through one shared Backend and the
// shared request-id mint concurrently, so data races surface here.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

ClusterConfig sweep_config(double rps) {
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 3000.0;
  config.offered_rps = rps;
  return config;
}

// Normalises the one field that legitimately differs between invocations:
// request ids are minted from a process-global counter, so the base moves
// between batches even though everything derived from the seed does not.
ClusterResult without_id_base(ClusterResult r) {
  r.request_id_base = 0;
  return r;
}

struct SweepFixture {
  SystemOptions opts = quiet_options();
  Workflow wf = make_slapp();
  std::unique_ptr<Backend> faastlane = make_system("Faastlane", wf, opts);
  std::unique_ptr<Backend> chiron = make_system("Chiron", wf, opts);

  std::vector<ScenarioSpec> specs() const {
    ScenarioSpec light{"faastlane-light", sweep_config(10.0),
                       faastlane.get(), 1};
    ScenarioSpec heavy{"faastlane-heavy", sweep_config(40.0),
                       faastlane.get(), 1};
    heavy.config.faults.crash = 0.05;
    heavy.config.retry.max_attempts = 3;
    ScenarioSpec alt{"chiron", sweep_config(25.0), chiron.get(), 1};
    return {light, heavy, alt};
  }
};

TEST(SweepDeterminism, PerSeedResultsIdenticalAcrossPoolSizes) {
  const SweepFixture fx;
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};

  const auto sequential =
      ClusterSimulator::run_batch(fx.specs(), seeds, fx.opts.params, 1);
  const auto par4 =
      ClusterSimulator::run_batch(fx.specs(), seeds, fx.opts.params, 4);
  const auto par8 =
      ClusterSimulator::run_batch(fx.specs(), seeds, fx.opts.params, 8);

  ASSERT_EQ(sequential.size(), 3u);
  ASSERT_EQ(par4.size(), 3u);
  ASSERT_EQ(par8.size(), 3u);
  for (std::size_t s = 0; s < sequential.size(); ++s) {
    SCOPED_TRACE(sequential[s].name);
    ASSERT_EQ(sequential[s].runs.size(), seeds.size());
    ASSERT_EQ(par4[s].runs.size(), seeds.size());
    ASSERT_EQ(par8[s].runs.size(), seeds.size());
    EXPECT_EQ(sequential[s].seeds, seeds);
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      SCOPED_TRACE("seed " + std::to_string(seeds[k]));
      EXPECT_EQ(without_id_base(sequential[s].runs[k]),
                without_id_base(par4[s].runs[k]));
      EXPECT_EQ(without_id_base(sequential[s].runs[k]),
                without_id_base(par8[s].runs[k]));
    }
    // Merged accumulators are built in seed order either way, so they are
    // bit-identical too, not merely close.
    EXPECT_EQ(sequential[s].latency_ms, par4[s].latency_ms);
    EXPECT_EQ(sequential[s].latency_ms, par8[s].latency_ms);
    EXPECT_EQ(sequential[s].achieved_rps, par8[s].achieved_rps);
  }
}

TEST(SweepShardedDeterminism, MultiNodeScenariosIdenticalAcrossPoolSizes) {
  // The windowed multi-node engine inside run_batch workers: stateful
  // routing (warm_affinity), faults, retries, and node crashes, swept
  // across batch thread counts 1/4/8. Per-seed results must be
  // bit-identical — the engine's schedule depends only on the config, so
  // neither the batch thread count nor nesting inside batch threads may
  // perturb it.
  const SweepFixture fx;
  ScenarioSpec sharded{"faastlane-sharded", sweep_config(30.0),
                       fx.faastlane.get(), 1};
  sharded.config.nodes = 4;
  sharded.config.router = RouterPolicy::kWarmAffinity;
  sharded.config.faults.cold_start_failure = 0.08;
  sharded.config.faults.crash = 0.1;
  sharded.config.faults.node_crash = 0.4;
  sharded.config.faults.seed = 21;
  sharded.config.retry.max_attempts = 3;
  sharded.config.retry.timeout_ms = 800.0;
  ScenarioSpec parallel_engine = sharded;
  parallel_engine.name = "faastlane-sharded-mt";
  parallel_engine.config.sim_threads = 4;  // windowed engine goes parallel
  const std::vector<ScenarioSpec> specs{sharded, parallel_engine};
  const std::vector<std::uint64_t> seeds{101, 202, 303};

  const auto base =
      ClusterSimulator::run_batch(specs, seeds, fx.opts.params, 1);
  const auto par4 =
      ClusterSimulator::run_batch(specs, seeds, fx.opts.params, 4);
  const auto par8 =
      ClusterSimulator::run_batch(specs, seeds, fx.opts.params, 8);

  ASSERT_EQ(base.size(), 2u);
  for (std::size_t s = 0; s < base.size(); ++s) {
    SCOPED_TRACE(base[s].name);
    ASSERT_EQ(base[s].runs.size(), seeds.size());
    for (std::size_t k = 0; k < seeds.size(); ++k) {
      SCOPED_TRACE("seed " + std::to_string(seeds[k]));
      EXPECT_EQ(without_id_base(base[s].runs[k]),
                without_id_base(par4[s].runs[k]));
      EXPECT_EQ(without_id_base(base[s].runs[k]),
                without_id_base(par8[s].runs[k]));
      ASSERT_EQ(base[s].runs[k].node_results.size(), 4u);
    }
    EXPECT_EQ(base[s].latency_ms, par4[s].latency_ms);
    EXPECT_EQ(base[s].latency_ms, par8[s].latency_ms);
  }
  // And sim_threads itself must not change results either: the
  // single-thread and four-thread engine scenarios agree run-for-run.
  for (std::size_t k = 0; k < seeds.size(); ++k) {
    EXPECT_EQ(without_id_base(base[0].runs[k]),
              without_id_base(base[1].runs[k]))
        << "sim_threads changed seed " << seeds[k];
  }
}

TEST(SweepAggregates, OutcomeIsExactFoldOfRuns) {
  const SweepFixture fx;
  const std::vector<std::uint64_t> seeds{5, 6};
  const auto outcomes =
      ClusterSimulator::run_batch(fx.specs(), seeds, fx.opts.params, 1);

  for (const ScenarioOutcome& o : outcomes) {
    SCOPED_TRACE(o.name);
    std::size_t offered = 0, completed = 0, cold = 0, timed_out = 0,
                dropped = 0, samples = 0;
    RunningStats latency;
    for (const ClusterResult& r : o.runs) {
      offered += r.offered;
      completed += r.completed;
      cold += r.cold_starts;
      timed_out += r.timed_out;
      dropped += r.dropped;
      samples += r.latency_stats.count();
      latency.merge(r.latency_stats);
    }
    EXPECT_EQ(o.offered, offered);
    EXPECT_EQ(o.completed, completed);
    EXPECT_EQ(o.cold_starts, cold);
    EXPECT_EQ(o.timed_out, timed_out);
    EXPECT_EQ(o.dropped, dropped);
    EXPECT_EQ(o.latency_ms.count(), samples);
    EXPECT_EQ(o.latency_ms, latency);
    EXPECT_GT(o.offered, 0u);
    // Every offered request reaches exactly one terminal state.
    EXPECT_EQ(o.offered, o.completed + o.timed_out + o.dropped);
  }
}

TEST(SweepSemantics, MatchesSingleRunPerSeed) {
  const SweepFixture fx;
  const std::vector<std::uint64_t> seeds{7, 8, 9};
  ScenarioSpec spec{"faastlane", sweep_config(15.0), fx.faastlane.get(), 1};
  const auto outcomes =
      ClusterSimulator::run_batch({spec}, seeds, fx.opts.params, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].runs.size(), seeds.size());

  for (std::size_t k = 0; k < seeds.size(); ++k) {
    ClusterConfig config = spec.config;
    config.seed = seeds[k];
    const ClusterSimulator sim(config, fx.opts.params);
    const ClusterResult direct = sim.run(*fx.faastlane, 1);
    EXPECT_EQ(without_id_base(direct), without_id_base(outcomes[0].runs[k]));
  }
}

TEST(SweepSemantics, EmptySeedsRunEachSpecOnce) {
  const SweepFixture fx;
  ScenarioSpec spec{"faastlane", sweep_config(15.0), fx.faastlane.get(), 1};
  spec.config.seed = 4242;
  const auto outcomes =
      ClusterSimulator::run_batch({spec}, {}, fx.opts.params, 1);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_EQ(outcomes[0].runs.size(), 1u);
  EXPECT_EQ(outcomes[0].seeds, std::vector<std::uint64_t>{4242});
  EXPECT_GT(outcomes[0].completed, 0u);
}

}  // namespace
}  // namespace chiron

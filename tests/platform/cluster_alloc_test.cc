// Allocation-freedom of the typed-event serving loop: in steady state the
// hot path performs ZERO heap allocations per request. Everything it
// needs — the event slab, the heap, request states, the waiting-queue and
// warm-pool rings, the latency buffer — is reserved up front, so the
// per-run allocation count is a small constant that does NOT grow with
// the number of requests served (a scoped operator-new counter proves
// it). The retired closure loop, by contrast, allocates at least one
// std::function per scheduled event.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "platform/cluster.h"
#include "support/alloc_counter.h"

namespace chiron {
namespace {

/// Constant-latency backend whose run() never touches the heap, so every
/// counted allocation is the serving loop's own.
class PodBackend : public Backend {
 public:
  explicit PodBackend(TimeMs latency) : latency_(latency) {
    usage_.cpus = 8.0;  // small fleet => queueing, handoffs, timeouts
    usage_.memory_mb = 0.0;
  }
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

/// High-churn configuration: faults, retries, and timeouts all armed, so
/// the counted window exercises every event kind (arrival, completion,
/// crash, retry, timeout) plus queue tombstoning and warm-pool churn.
ClusterConfig churn_config(double offered_rps) {
  ClusterConfig config;
  config.nodes = 1;
  config.horizon_ms = 10000.0;
  config.offered_rps = offered_rps;
  config.keep_alive_ms = 50.0;
  config.faults.cold_start_failure = 0.05;
  config.faults.crash = 0.1;
  config.faults.straggler = 0.1;
  config.faults.seed = 1234;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 600.0;
  return config;
}

/// Runs the typed loop over ~`offered_rps * 10` requests with the
/// operator-new counter armed around run_prepared() only (arrival
/// generation happens outside the window) and returns {allocations,
/// offered requests}.
std::pair<std::uint64_t, std::size_t> count_run(double offered_rps) {
  const ClusterConfig config = churn_config(offered_rps);
  const PodBackend backend(35.0);
  const RuntimeParams params = RuntimeParams::defaults();
  Rng rng(config.seed);
  ArrivalGenerator gen(config.arrivals, config.offered_rps, rng.split());
  const std::vector<TimeMs> arrivals = gen.generate(config.horizon_ms);
  const ClusterSimulator sim(config, params);

  testsupport::ScopedAllocCounter counter;
  const ClusterResult result = sim.run_prepared(backend, 1, arrivals, 1);
  const std::uint64_t allocs = counter.count();

  // The run really did churn: every terminal state was reached.
  EXPECT_EQ(result.offered, result.completed + result.timed_out +
                                result.dropped);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_GT(result.timed_out, 0u);
  return {allocs, result.offered};
}

/// Same counting harness over the windowed engine on four nodes with real
/// routing, `sim_threads` window workers, and `max_attempts` retry
/// attempts. The per-node rings, the router views, and (with threads) the
/// pool, barrier, and worker futures are all part of the up-front
/// reservation, so the steady-state claim is unchanged. Returns
/// {allocations, offered requests, windows}; the window count comes from
/// a second, uncounted run with a metrics registry attached.
struct ShardedCount {
  std::uint64_t allocs = 0;
  std::size_t offered = 0;
  std::int64_t windows = 0;
};

ShardedCount count_sharded_run(double offered_rps, RouterPolicy policy,
                               std::uint32_t max_attempts,
                               std::size_t sim_threads) {
  ClusterConfig config = churn_config(offered_rps);
  config.nodes = 4;
  config.router = policy;
  config.retry.max_attempts = max_attempts;
  config.sim_threads = sim_threads;
  const PodBackend backend(35.0);
  const RuntimeParams params = RuntimeParams::defaults();
  Rng rng(config.seed);
  ArrivalGenerator gen(config.arrivals, config.offered_rps, rng.split());
  const std::vector<TimeMs> arrivals = gen.generate(config.horizon_ms);
  const ClusterSimulator sim(config, params);

  testsupport::ScopedAllocCounter counter;
  const ClusterResult result = sim.run_prepared(backend, 1, arrivals, 1);
  const std::uint64_t allocs = counter.count();

  EXPECT_EQ(result.offered, result.completed + result.timed_out +
                                result.dropped);
  EXPECT_GT(result.completed, 0u);
  EXPECT_GT(result.failed, 0u);
  EXPECT_EQ(result.node_results.size(), 4u);

  obs::MetricsRegistry metrics;
  config.metrics = &metrics;
  ClusterSimulator(config, params).run_prepared(backend, 1, arrivals, 1);
  return {allocs, result.offered,
          metrics.counter("cluster.sim.windows").value()};
}

TEST(ClusterAllocationTest, ParallelEngineAllocationsDoNotScaleWithRequests) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const ShardedCount small =
      count_sharded_run(400.0, RouterPolicy::kWarmAffinity, 3, 4);
  const ShardedCount big =
      count_sharded_run(1600.0, RouterPolicy::kWarmAffinity, 3, 4);
  ASSERT_GT(big.offered, small.offered + 8000u);

  // Setup additionally spawns the pool threads, the barrier, and the
  // worker futures — still a constant. Thread creation allocates more
  // than plain buffers, so the absolute budget is looser; the growth
  // bound is the claim that matters.
  EXPECT_LT(small.allocs, 192u);
  EXPECT_LE(big.allocs, small.allocs + 16u)
      << "serving " << (big.offered - small.offered)
      << " more requests allocated " << (big.allocs - small.allocs)
      << " more times: the windowed engine's per-event path is no longer "
         "allocation-free";
}

TEST(ClusterAllocationTest, ShardedLoopAllocationsDoNotScaleWithRequests) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const ShardedCount small =
      count_sharded_run(400.0, RouterPolicy::kWarmAffinity, 3, 1);
  const ShardedCount big =
      count_sharded_run(1600.0, RouterPolicy::kWarmAffinity, 3, 1);
  ASSERT_GT(big.offered, small.offered + 8000u);

  // Setup reserves a few more buffers than a one-node run (per-node
  // rings, router views, per-node sinks) — still a small constant.
  EXPECT_LT(small.allocs, 96u);
  EXPECT_LE(big.allocs, small.allocs + 8u)
      << "serving " << (big.offered - small.offered)
      << " more requests allocated " << (big.allocs - small.allocs)
      << " more times: the sharded hot path is no longer allocation-free";
}

// Stateless policies without retries never transfer a request between
// nodes, so the whole run is one window: the engine pre-routes every
// arrival and reserves each node's inbox and log exactly. That path must
// stay allocation-free too.
TEST(ClusterAllocationTest, SingleWindowAllocationsDoNotScaleWithRequests) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  for (const RouterPolicy policy :
       {RouterPolicy::kRoundRobin, RouterPolicy::kRandom}) {
    SCOPED_TRACE(to_string(policy));
    const ShardedCount small = count_sharded_run(400.0, policy, 1, 4);
    const ShardedCount big = count_sharded_run(1600.0, policy, 1, 4);
    ASSERT_GT(big.offered, small.offered + 8000u);
    EXPECT_EQ(small.windows, 1);
    EXPECT_EQ(big.windows, 1);
    EXPECT_LE(big.allocs, small.allocs + 8u)
        << "serving " << (big.offered - small.offered)
        << " more requests allocated " << (big.allocs - small.allocs)
        << " more times: the single-window pre-route is no longer "
           "allocation-free";
  }
}

TEST(ClusterAllocationTest, TypedLoopAllocationsDoNotScaleWithRequests) {
  if (!testsupport::alloc_counting_supported()) {
    GTEST_SKIP() << "allocation counting disabled under sanitizers";
  }
  const auto [small_allocs, small_offered] = count_run(100.0);   // ~1k reqs
  const auto [big_allocs, big_offered] = count_run(400.0);       // ~4k reqs
  ASSERT_GT(big_offered, small_offered + 2000u);

  // Setup reserves a fixed set of buffers and teardown builds one Cdf and
  // one log line: a small constant, independent of the request count.
  EXPECT_LT(small_allocs, 64u);
  // The strong claim: thousands of additional requests cost ZERO extra
  // allocations (a tiny tolerance absorbs one-off stdlib effects).
  EXPECT_LE(big_allocs, small_allocs + 8u)
      << "serving " << (big_offered - small_offered)
      << " more requests allocated " << (big_allocs - small_allocs)
      << " more times: the hot path is no longer allocation-free";
}

}  // namespace
}  // namespace chiron

#include "platform/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
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

ClusterConfig small_config() {
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 5000.0;
  config.offered_rps = 20.0;
  return config;
}

TEST(ColdStartPenaltyTest, ScalesWithCascadingStages) {
  const RuntimeParams& p = RuntimeParams::defaults();
  EXPECT_DOUBLE_EQ(cold_start_penalty(p, 1), p.sandbox_cold_start_ms);
  EXPECT_DOUBLE_EQ(cold_start_penalty(p, 4), 4.0 * p.sandbox_cold_start_ms);
  EXPECT_DOUBLE_EQ(cold_start_penalty(p, 0), p.sandbox_cold_start_ms);
}

TEST(ClusterTest, LightLoadCompletesEverything) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterSimulator sim(small_config(), opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  EXPECT_GT(r.offered, 50u);
  EXPECT_EQ(r.completed, r.offered);
  EXPECT_GT(r.p50_ms, 0.0);
  EXPECT_GE(r.p99_ms, r.p50_ms);
  EXPECT_GE(r.p95_ms, r.p50_ms);
}

TEST(ClusterTest, FirstRequestPaysColdStart) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config = small_config();
  config.offered_rps = 1.0;  // sparse: every instance reused warm after 1st
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  EXPECT_GE(r.cold_starts, 1u);
  // Max latency includes the cold start; p50 does not (warm reuse).
  Rng rng(1);
  const TimeMs warm = backend->run(rng).e2e_latency_ms;
  EXPECT_LT(r.p50_ms, warm + opts.params.sandbox_cold_start_ms);
}

TEST(ClusterTest, ShortKeepAliveCausesMoreColdStarts) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig long_ttl = small_config();
  long_ttl.keep_alive_ms = 60000.0;
  ClusterConfig short_ttl = small_config();
  short_ttl.keep_alive_ms = 10.0;
  ClusterSimulator sim_long(long_ttl, opts.params);
  ClusterSimulator sim_short(short_ttl, opts.params);
  EXPECT_GT(sim_short.run(*backend, 1).cold_starts,
            sim_long.run(*backend, 1).cold_starts);
}

TEST(ClusterTest, CascadingColdStartsHurtTail) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_social_network();
  const auto backend = make_system("OpenFaaS", wf, opts);
  ClusterConfig config = small_config();
  config.keep_alive_ms = 50.0;  // force frequent cold paths
  ClusterSimulator sim(config, opts.params);
  const ClusterResult cascading = sim.run(*backend, wf.stage_count());
  const ClusterResult single = sim.run(*backend, 1);
  EXPECT_GT(cascading.p99_ms, single.p99_ms);
}

TEST(ClusterTest, OverloadSaturatesAtCapacity) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_finra(25);
  const auto backend = make_system("OpenFaaS", wf, opts);  // 27 CPUs/instance
  ClusterConfig config = small_config();
  config.offered_rps = 500.0;  // far beyond 2 nodes
  config.horizon_ms = 4000.0;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  // The backlog eventually drains (the simulator runs the queue dry), but
  // a deep queue forms and the service rate stays capacity-bound, far
  // below the offered rate.
  EXPECT_GT(r.peak_queue, 10u);
  EXPECT_LT(r.achieved_rps, 500.0 * 0.5);
  EXPECT_GT(r.p99_ms, 1000.0);  // queueing dominates the tail
}

TEST(ClusterTest, MoreNodesMoreThroughputUnderOverload) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_finra(25);
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig two = small_config();
  two.offered_rps = 1000.0;
  two.horizon_ms = 4000.0;
  ClusterConfig eight = two;
  eight.nodes = 8;
  ClusterSimulator sim2(two, opts.params);
  ClusterSimulator sim8(eight, opts.params);
  EXPECT_GT(sim8.run(*backend, 1).achieved_rps,
            sim2.run(*backend, 1).achieved_rps * 2.0);
}

TEST(ClusterTest, ChironOutServesFaastlaneUnderOverload) {
  // The Fig. 16 claim in closed-loop form: same cluster, same load,
  // Chiron completes more requests.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_finra(25);
  ClusterConfig config = small_config();
  config.offered_rps = 2000.0;
  config.horizon_ms = 3000.0;
  ClusterSimulator sim(config, opts.params);
  const auto chiron = make_system("Chiron", wf, opts);
  const auto faastlane = make_system("Faastlane", wf, opts);
  EXPECT_GT(sim.run(*chiron, 1).achieved_rps,
            1.3 * sim.run(*faastlane, 1).achieved_rps);
}

TEST(ClusterTest, ColdStartCounterMatchesResult) {
  // The acceptance check: the simulator's emitted metrics agree exactly
  // with the ClusterResult it returns.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  obs::MetricsRegistry metrics;
  ClusterConfig config = small_config();
  config.metrics = &metrics;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  EXPECT_GE(r.cold_starts, 1u);
  EXPECT_EQ(metrics.counter("cluster.cold_starts").value(),
            static_cast<std::int64_t>(r.cold_starts));
  EXPECT_DOUBLE_EQ(metrics.gauge("cluster.queue_depth").high_water(),
                   static_cast<double>(r.peak_queue));
  EXPECT_DOUBLE_EQ(metrics.gauge("cluster.peak_instances").value(),
                   static_cast<double>(r.peak_instances));
  const obs::HistogramSnapshot lat =
      metrics.histogram("cluster.e2e_latency_ms").snapshot();
  EXPECT_EQ(lat.count, static_cast<std::uint64_t>(r.completed));
  EXPECT_NEAR(lat.stats.mean(), r.mean_ms, 1e-6);
}

TEST(ClusterTest, EmitsVirtualTimeRequestSpans) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ClusterConfig config = small_config();
  config.tracer = &tracer;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);

  std::size_t begins = 0, ends = 0, cold_instants = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    EXPECT_EQ(ev.pid, obs::kVirtualPid);  // everything on the virtual clock
    if (ev.name == "request" && ev.phase == 'b') ++begins;
    if (ev.name == "request" && ev.phase == 'e') ++ends;
    if (ev.name == "cluster.cold_start") ++cold_instants;
  }
  EXPECT_EQ(begins, r.offered);
  EXPECT_EQ(ends, r.completed);
  EXPECT_EQ(cold_instants, r.cold_starts);
}

TEST(ClusterTest, DeterministicForSeed) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterSimulator sim(small_config(), opts.params);
  const ClusterResult a = sim.run(*backend, 1);
  const ClusterResult b = sim.run(*backend, 1);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_DOUBLE_EQ(a.mean_ms, b.mean_ms);
}

// --- keep_alive_ms == 0 regression -----------------------------------------

TEST(ClusterTest, ZeroKeepAliveHandoffStaysWarm) {
  // Regression: a finishing instance handed directly to a queued request
  // must not transit the warm pool, where keep_alive_ms == 0 would reap
  // it instantly and charge a spurious cold start per handoff. Under
  // sustained overload the cold-start count is the fleet size, not the
  // request count.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_finra(25);
  const auto backend = make_system("OpenFaaS", wf, opts);
  ClusterConfig config = small_config();
  config.keep_alive_ms = 0.0;
  config.offered_rps = 500.0;
  config.horizon_ms = 3000.0;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  EXPECT_GT(r.peak_queue, 10u);  // genuinely overloaded: handoffs happen
  EXPECT_LT(r.cold_starts, r.offered / 10);
}

// --- single-dimension capacity regression ----------------------------------

class FixedLatencyBackend : public Backend {
 public:
  FixedLatencyBackend(TimeMs latency, ResourceUsage usage)
      : latency_(latency), usage_(usage) {}
  std::string name() const override { return "fixed"; }
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

TEST(ClusterTest, MemoryOnlyDeploymentIsBoundByMemoryAlone) {
  // A deployment reporting zero CPUs (e.g. a pure-I/O wrap) must be
  // capacity-bound by its memory dimension, not degenerate to one
  // instance (or worse) because of the zero dimension.
  const RuntimeParams params = RuntimeParams::defaults();
  ResourceUsage usage;
  usage.cpus = 0.0;
  usage.memory_mb = params.node_memory_mb / 4.0;  // 4 instances per node
  const FixedLatencyBackend backend(50.0, usage);
  ClusterConfig config;
  config.nodes = 1;
  config.offered_rps = 400.0;  // force scale-out to the cap
  config.horizon_ms = 2000.0;
  config.keep_alive_ms = 60000.0;
  ClusterSimulator sim(config, params);
  const ClusterResult r = sim.run(backend, 1);
  EXPECT_EQ(r.peak_instances, 4u);
}

TEST(ClusterTest, ZeroResourceDeploymentStillServes) {
  // Both dimensions zero (a stub backend): capacity clamps to one
  // instance instead of overflowing an infinite division to garbage.
  const FixedLatencyBackend backend(5.0, ResourceUsage{});
  ClusterConfig config;
  config.offered_rps = 10.0;
  config.horizon_ms = 2000.0;
  ClusterSimulator sim(config, RuntimeParams::defaults());
  const ClusterResult r = sim.run(backend, 1);
  EXPECT_EQ(r.peak_instances, 1u);
  EXPECT_EQ(r.completed, r.offered);
}

TEST(ClusterTest, CapacityFloorIsExactOnEvenDivisions) {
  // Regression: node_cpus = 3 with usage 0.3 divides to
  // 9.999999999999998 in doubles; a plain floor silently dropped the
  // tenth instance. The epsilon floor recovers it without ever rounding
  // a genuinely fractional ratio up.
  RuntimeParams params = RuntimeParams::defaults();
  params.node_cpus = 3;
  ResourceUsage usage;
  usage.cpus = 0.3;
  usage.memory_mb = 0.0;
  const FixedLatencyBackend backend(50.0, usage);
  ClusterConfig config;
  config.nodes = 1;
  config.offered_rps = 600.0;  // force scale-out to the cap
  config.horizon_ms = 2000.0;
  config.keep_alive_ms = 60000.0;
  ClusterSimulator sim(config, params);
  EXPECT_EQ(sim.run(backend, 1).peak_instances, 10u);
}

// --- sharded routing --------------------------------------------------------

/// Skewed-load scenario for the router policies: bursts land in lockstep
/// while the keep-alive barely outlives one burst gap, so placement
/// decides whether instances stay warm between bursts (the
/// bench_micro_router scenario, pinned here behaviorally).
ClusterConfig bursty_router_config(RouterPolicy policy) {
  ClusterConfig config;
  config.nodes = 8;
  config.router = policy;
  config.arrivals = ArrivalKind::kBurst;
  config.offered_rps = 60.0;   // bursts of 10 every ~167 ms
  config.keep_alive_ms = 250.0;
  config.horizon_ms = 20000.0;
  config.seed = 42;
  return config;
}

TEST(ClusterTest, RoundRobinSpreadsArrivalsEvenly) {
  const RuntimeParams params = RuntimeParams::defaults();
  ResourceUsage usage;
  usage.cpus = static_cast<double>(params.node_cpus) / 4.0;
  const FixedLatencyBackend backend(30.0, usage);
  ClusterConfig config;
  config.nodes = 4;
  config.offered_rps = 50.0;
  config.horizon_ms = 10000.0;
  ClusterSimulator sim(config, params);
  const ClusterResult r = sim.run(backend, 1);
  ASSERT_EQ(r.node_results.size(), 4u);
  std::size_t routed_sum = 0, min_routed = r.offered, max_routed = 0;
  for (const NodeResult& node : r.node_results) {
    routed_sum += node.routed;
    min_routed = std::min(min_routed, node.routed);
    max_routed = std::max(max_routed, node.routed);
  }
  // Healthy run: one dispatch per request, cycled node by node.
  EXPECT_EQ(routed_sum, r.offered);
  EXPECT_LE(max_routed - min_routed, 1u);
  EXPECT_EQ(r.completed, r.offered);
}

TEST(ClusterTest, WarmAffinityBeatsRandomOnColdStarts) {
  // The ICPS-style argument: sending requests where a warm instance
  // already sits pays the cold start once; oblivious spreading re-pays
  // it every time the keep-alive lapses between hits on a node.
  const RuntimeParams params = RuntimeParams::defaults();
  ResourceUsage usage;
  usage.cpus = static_cast<double>(params.node_cpus) / 4.0;
  const FixedLatencyBackend backend(30.0, usage);
  ClusterSimulator warm(bursty_router_config(RouterPolicy::kWarmAffinity),
                        params);
  ClusterSimulator random(bursty_router_config(RouterPolicy::kRandom),
                          params);
  const ClusterResult warm_r = warm.run(backend, 1);
  const ClusterResult random_r = random.run(backend, 1);
  ASSERT_GT(warm_r.offered, 500u);
  EXPECT_EQ(warm_r.completed, warm_r.offered);
  EXPECT_LT(warm_r.cold_starts * 2, random_r.cold_starts)
      << "warm-affinity should at least halve random's cold starts";
}

TEST(ClusterTest, PerNodeMetricsSumToClusterTotals) {
  const RuntimeParams params = RuntimeParams::defaults();
  ResourceUsage usage;
  usage.cpus = static_cast<double>(params.node_cpus) / 4.0;
  const FixedLatencyBackend backend(30.0, usage);
  obs::MetricsRegistry metrics;
  ClusterConfig config = bursty_router_config(RouterPolicy::kPowerOfTwo);
  config.nodes = 3;
  config.metrics = &metrics;
  ClusterSimulator sim(config, params);
  const ClusterResult r = sim.run(backend, 1);
  ASSERT_EQ(r.node_results.size(), 3u);
  std::int64_t exported = 0;
  std::size_t per_node = 0, completed = 0;
  for (std::size_t k = 0; k < 3; ++k) {
    const std::string name =
        "cluster.node." + std::to_string(k) + ".cold_starts";
    EXPECT_EQ(metrics.counter(name).value(),
              static_cast<std::int64_t>(r.node_results[k].cold_starts))
        << name;
    exported += metrics.counter(name).value();
    per_node += r.node_results[k].cold_starts;
    completed += r.node_results[k].completed;
  }
  EXPECT_EQ(exported, static_cast<std::int64_t>(r.cold_starts));
  EXPECT_EQ(per_node, r.cold_starts);
  EXPECT_EQ(completed, r.completed);
}

TEST(ClusterTest, RejectsUnsortedArrivals) {
  // The engine reads arrivals through an in-order cursor; a hand-built
  // unsorted stream is an error, not something to re-sort silently.
  const RuntimeParams params = RuntimeParams::defaults();
  const FixedLatencyBackend backend(10.0, ResourceUsage{});
  const ClusterSimulator sim(ClusterConfig{}, params);
  EXPECT_THROW(sim.run_prepared(backend, 1, {0.0, 5.0, 3.0}, 1),
               std::invalid_argument);
  EXPECT_EQ(sim.run_prepared(backend, 1, {0.0, 3.0, 3.0, 5.0}, 1).completed,
            4u);
}

/// Expects constructing a simulator on `config` to throw
/// std::invalid_argument whose message names `field`.
void expect_rejected(const ClusterConfig& config, const std::string& field) {
  try {
    ClusterSimulator sim(config, RuntimeParams::defaults());
    ADD_FAILURE() << field << " was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << e.what();
  }
}

TEST(ClusterTest, RejectsZeroNodes) {
  ClusterConfig config;
  config.nodes = 0;
  expect_rejected(config, "nodes");
}

TEST(ClusterTest, RejectsNegativeOrNonFiniteDurations) {
  const double bad[] = {-1.0, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()};
  for (const double v : bad) {
    ClusterConfig config;
    config.keep_alive_ms = v;
    expect_rejected(config, "keep_alive_ms");
    config = ClusterConfig{};
    config.retry.base_backoff_ms = v;
    expect_rejected(config, "retry.base_backoff_ms");
    config = ClusterConfig{};
    config.retry.max_backoff_ms = v;
    expect_rejected(config, "retry.max_backoff_ms");
    config = ClusterConfig{};
    config.retry.timeout_ms = v;
    expect_rejected(config, "retry.timeout_ms");
  }
  ClusterConfig zero;  // zero keep-alive, backoff and timeout stay valid
  zero.keep_alive_ms = 0.0;
  zero.retry.base_backoff_ms = 0.0;
  zero.retry.max_backoff_ms = 0.0;
  zero.retry.timeout_ms = 0.0;
  EXPECT_NO_THROW(ClusterSimulator(zero, RuntimeParams::defaults()));
}

TEST(ClusterTest, RejectsZeroAttempts) {
  ClusterConfig config;
  config.retry.max_attempts = 0;
  expect_rejected(config, "retry.max_attempts");
}

TEST(ClusterTest, RejectsJitterOutsideUnitInterval) {
  for (const double v : {-0.1, 1.5, std::numeric_limits<double>::quiet_NaN()}) {
    ClusterConfig config;
    config.retry.jitter = v;
    expect_rejected(config, "retry.jitter");
  }
  for (const double v : {0.0, 1.0}) {  // both edges stay valid
    ClusterConfig config;
    config.retry.jitter = v;
    EXPECT_NO_THROW(ClusterSimulator(config, RuntimeParams::defaults()));
  }
}

TEST(ClusterFaultTest, NodeCrashFailsInFlightAndDrainsWarmPool) {
  // node_crash = 1.0: every node crashes exactly once at a seeded point
  // in the run. Victims fail (and retry), the node's warm pool drains,
  // and its queue re-routes — but conservation must still hold and the
  // victims must be accounted under their own fault kind.
  const RuntimeParams params = RuntimeParams::defaults();
  ResourceUsage usage;
  usage.cpus = static_cast<double>(params.node_cpus) / 2.0;  // 2 per node
  const FixedLatencyBackend backend(60.0, usage);
  obs::MetricsRegistry metrics;
  ClusterConfig config;
  config.nodes = 4;
  config.offered_rps = 120.0;  // keeps instances busy so crashes hit work
  config.horizon_ms = 8000.0;
  config.faults.node_crash = 1.0;
  config.faults.seed = 7;
  config.retry.max_attempts = 3;
  config.metrics = &metrics;
  ClusterSimulator sim(config, params);
  const ClusterResult r = sim.run(backend, 1);

  EXPECT_EQ(r.node_crashes, 4u);
  ASSERT_EQ(r.node_results.size(), 4u);
  std::size_t crashes = 0;
  for (const NodeResult& node : r.node_results) crashes += node.node_crashes;
  EXPECT_EQ(crashes, r.node_crashes);
  // Victims exist (the fleet is saturated) and each one is a `failed`
  // attempt counted under the node_crash kind — no bleed into the
  // attempt-level crash counter.
  const std::int64_t victims =
      metrics.counter("chiron.fault.injected.node_crash").value();
  EXPECT_GT(victims, 0);
  EXPECT_EQ(victims, static_cast<std::int64_t>(r.failed));
  EXPECT_EQ(metrics.counter("chiron.fault.injected.crash").value(), 0);
  // Conservation: no timeout armed, retries re-dispatch, so every
  // request still terminates.
  EXPECT_EQ(r.offered, r.completed + r.timed_out + r.dropped);
  EXPECT_GT(r.completed, 0u);
  // And the healthy twin is untouched by the fault plumbing.
  ClusterConfig healthy = config;
  healthy.faults.node_crash = 0.0;
  healthy.metrics = nullptr;
  const ClusterResult h = ClusterSimulator(healthy, params).run(backend, 1);
  EXPECT_EQ(h.node_crashes, 0u);
  EXPECT_EQ(h.failed, 0u);
  EXPECT_GE(r.cold_starts, h.cold_starts)
      << "drained warm pools must be rebuilt with fresh cold starts";
}

// --- fault injection, retry, timeout ---------------------------------------

ClusterConfig faulty_config() {
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 5000.0;
  config.offered_rps = 30.0;
  config.faults.cold_start_failure = 0.1;
  config.faults.crash = 0.15;
  config.faults.straggler = 0.1;
  config.faults.seed = 99;
  config.retry.max_attempts = 3;
  config.retry.timeout_ms = 1500.0;
  return config;
}

TEST(ClusterFaultTest, EveryRequestReachesExactlyOneTerminalState) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterSimulator sim(faulty_config(), opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  EXPECT_EQ(r.offered, r.completed + r.timed_out + r.dropped);
  EXPECT_GT(r.completed, 0u);
  EXPECT_GT(r.failed, 0u);
  EXPECT_GT(r.retried, 0u);
}

TEST(ClusterFaultTest, CompletedLatenciesNeverExceedTheDeadline) {
  // Timeout-wins-ties semantics: a request that would finish exactly at
  // (or after) its deadline is abandoned, so the completed-latency tail
  // is provably capped.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config = faulty_config();
  config.offered_rps = 100.0;  // queueing pushes some past the deadline
  config.retry.timeout_ms = 400.0;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  EXPECT_GT(r.timed_out, 0u);
  EXPECT_LE(r.p99_ms, 400.0);
}

TEST(ClusterFaultTest, SeededFaultRunReplaysExactly) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterSimulator sim(faulty_config(), opts.params);
  const ClusterResult a = sim.run(*backend, 1);
  const ClusterResult b = sim.run(*backend, 1);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_DOUBLE_EQ(a.mean_ms, b.mean_ms);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
}

TEST(ClusterFaultTest, FaultSeedChangesTheRunButNotConservation) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig other = faulty_config();
  other.faults.seed = 100;
  ClusterSimulator sim_a(faulty_config(), opts.params);
  ClusterSimulator sim_b(other, opts.params);
  const ClusterResult a = sim_a.run(*backend, 1);
  const ClusterResult b = sim_b.run(*backend, 1);
  EXPECT_EQ(a.offered, b.offered);  // arrivals use the cluster seed
  // Decisions use the fault seed, so the runs diverge somewhere.
  EXPECT_FALSE(a.failed == b.failed && a.mean_ms == b.mean_ms);
  EXPECT_EQ(b.offered, b.completed + b.timed_out + b.dropped);
}

TEST(ClusterFaultTest, ZeroProbabilitySpecMatchesHealthyRun) {
  // Arming the fault layer with all-zero probabilities must be
  // byte-identical to a healthy run: decisions hash a private stream and
  // never perturb the simulation's Rng draws.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig armed = small_config();
  armed.faults.seed = 0xDEAD;  // different seed, but nothing can fire
  armed.retry.max_attempts = 5;
  ClusterSimulator healthy(small_config(), opts.params);
  ClusterSimulator zeroed(armed, opts.params);
  const ClusterResult a = healthy.run(*backend, 1);
  const ClusterResult b = zeroed.run(*backend, 1);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
  EXPECT_DOUBLE_EQ(a.mean_ms, b.mean_ms);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_EQ(b.retried, 0u);
  EXPECT_EQ(b.timed_out, 0u);
  EXPECT_EQ(b.dropped, 0u);
}

TEST(ClusterFaultTest, CertainColdStartFailureDropsEverything) {
  // cold=1.0: no sandbox ever boots; each request burns its attempts and
  // is dropped. Exact, deterministic accounting.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig config = small_config();
  config.faults.cold_start_failure = 1.0;
  config.retry.max_attempts = 2;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_EQ(r.dropped, r.offered);
  EXPECT_EQ(r.retried, r.offered);       // one retry each
  EXPECT_EQ(r.failed, 2 * r.offered);    // both attempts fail
  EXPECT_EQ(r.cold_starts, 0u);
}

TEST(ClusterFaultTest, StragglersInflateTheTail) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterConfig straggly = small_config();
  straggly.faults.straggler = 0.2;
  straggly.faults.straggler_multiplier = 8.0;
  ClusterSimulator healthy(small_config(), opts.params);
  ClusterSimulator slow(straggly, opts.params);
  EXPECT_GT(slow.run(*backend, 1).p99_ms, healthy.run(*backend, 1).p99_ms);
}

TEST(ClusterFaultTest, FaultMetricsMatchResult) {
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  obs::MetricsRegistry metrics;
  ClusterConfig config = faulty_config();
  config.metrics = &metrics;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  // `failed` counts attempt-level failures: boot deaths + crashes.
  EXPECT_EQ(metrics.counter("chiron.fault.injected.cold_start").value() +
                metrics.counter("chiron.fault.injected.crash").value(),
            static_cast<std::int64_t>(r.failed));
  EXPECT_EQ(metrics.counter("chiron.retry.attempts").value(),
            static_cast<std::int64_t>(r.retried));
  EXPECT_EQ(metrics.counter("chiron.request.timeout").value(),
            static_cast<std::int64_t>(r.timed_out));
}

TEST(ClusterFaultTest, EveryRequestSpanIsClosedUnderFaults) {
  // With faults, retries, and timeouts in play, the tracer still sees one
  // async begin and one async end per offered request — terminal states
  // close spans too.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ClusterConfig config = faulty_config();
  config.tracer = &tracer;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  std::size_t begins = 0, ends = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name == "request" && ev.phase == 'b') ++begins;
    if (ev.name == "request" && ev.phase == 'e') ++ends;
  }
  EXPECT_EQ(begins, r.offered);
  EXPECT_EQ(ends, r.offered);
}

TEST(ClusterFaultTest, TransferClampedPastItsDeadlineTimesOutThere) {
  // Jitter 1 zeroes the backoff floor, so a retry's transfer can land in
  // the window it failed in; the coordinator delivers it at the next
  // barrier, and a deadline that falls in between times the request out
  // at the deadline instead. Every warm attempt here crashes 10 ms in
  // against a 10.2 ms deadline, so that gap is hit, and each such request
  // still ends with one timeout, recorded and traced at its deadline.
  const RuntimeParams params = RuntimeParams::defaults();
  ResourceUsage usage;
  usage.cpus = static_cast<double>(params.node_cpus) / 8.0;
  const FixedLatencyBackend backend(20.0, usage);
  obs::FlightRecorder recorder(1 << 16);
  recorder.set_enabled(true);
  obs::Tracer tracer;
  tracer.set_enabled(true);
  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 2000.0;
  config.offered_rps = 100.0;
  config.faults.crash = 1.0;
  config.faults.crash_point = 0.5;
  config.faults.seed = 5;
  config.retry.max_attempts = 2;
  config.retry.base_backoff_ms = 0.5;
  config.retry.jitter = 1.0;
  config.retry.timeout_ms = 10.2;
  config.recorder = &recorder;
  config.tracer = &tracer;
  const ClusterResult r = ClusterSimulator(config, params).run(backend, 1);
  ASSERT_EQ(recorder.dropped_count(), 0u);

  std::size_t late = 0;
  for (std::uint64_t i = 0; i < r.offered; ++i) {
    const std::vector<obs::RecorderEvent> timeline =
        recorder.timeline(r.request_id_base + i);
    ASSERT_GE(timeline.size(), 2u);
    const obs::RecorderEvent& last = timeline.back();
    const obs::RecorderEvent& backoff = timeline[timeline.size() - 2];
    // The retry was due before the deadline, yet nothing was dispatched.
    if (backoff.kind == obs::RecKind::kRetryBackoff &&
        backoff.ts_ms + backoff.value < last.ts_ms) {
      ++late;
      EXPECT_EQ(last.kind, obs::RecKind::kTimeout);
      EXPECT_EQ(last.ts_ms,
                timeline.front().ts_ms + config.retry.timeout_ms);
    }
  }
  EXPECT_GT(late, 0u);
  std::size_t timeouts = 0, ends = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (ev.name == "request.timeout") ++timeouts;
    if (ev.name == "request" && ev.phase == 'e') ++ends;
  }
  EXPECT_EQ(timeouts, r.timed_out);
  EXPECT_EQ(ends, r.offered);
}

TEST(ClusterFaultTest, RecorderYieldsCompleteCausalTimelinePerRequest) {
  // The acceptance bar for request causality: a seeded faulted run with
  // the flight recorder attached yields, for every minted request id, a
  // timeline that starts at admission and ends at exactly one terminal
  // event — and the per-kind terminal totals reconcile with the
  // ClusterResult counters.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  obs::FlightRecorder recorder(1 << 16);
  recorder.set_enabled(true);
  ClusterConfig config = faulty_config();
  config.recorder = &recorder;
  ClusterSimulator sim(config, opts.params);
  const ClusterResult r = sim.run(*backend, 1);
  ASSERT_GT(r.offered, 0u);
  ASSERT_GT(r.request_id_base, 0u);
  EXPECT_EQ(recorder.dropped_count(), 0u);  // capacity held the whole run

  std::uint64_t completed = 0, timed_out = 0, dropped = 0;
  for (std::uint64_t i = 0; i < r.offered; ++i) {
    const std::uint64_t id = r.request_id_base + i;
    const std::vector<obs::RecorderEvent> timeline = recorder.timeline(id);
    ASSERT_FALSE(timeline.empty()) << "request " << id << " left no events";
    EXPECT_EQ(timeline.front().kind, obs::RecKind::kAdmit);
    EXPECT_EQ(timeline.front().attempt, 1u);
    std::size_t terminals = 0;
    for (const obs::RecorderEvent& ev : timeline) {
      EXPECT_EQ(ev.request, id);
      switch (ev.kind) {
        case obs::RecKind::kComplete: ++completed; ++terminals; break;
        case obs::RecKind::kTimeout: ++timed_out; ++terminals; break;
        case obs::RecKind::kDrop: ++dropped; ++terminals; break;
        default: break;
      }
    }
    EXPECT_EQ(terminals, 1u) << "request " << id;
    // The terminal event closes the timeline — nothing recorded after it.
    const obs::RecorderEvent& last = timeline.back();
    EXPECT_TRUE(last.kind == obs::RecKind::kComplete ||
                last.kind == obs::RecKind::kTimeout ||
                last.kind == obs::RecKind::kDrop)
        << "request " << id << " ends with " << to_string(last.kind);
    // Retried requests show their retry attempts in causal order.
    std::uint32_t max_attempt = 0;
    for (const obs::RecorderEvent& ev : timeline) {
      EXPECT_GE(ev.attempt + 1, max_attempt);  // attempts never rewind
      max_attempt = std::max(max_attempt, ev.attempt);
    }
  }
  EXPECT_EQ(completed, r.completed);
  EXPECT_EQ(timed_out, r.timed_out);
  EXPECT_EQ(dropped, r.dropped);
}

TEST(ClusterFaultTest, RecorderKeepsEveryConfiguredSlotAtAnyThreadCount) {
  // A recorder sized far below a faulted run's event count keeps exactly
  // its capacity — the newest events, whichever thread wrote them — and
  // counts the rest dropped. The rate fans windows out to the workers at
  // four threads, so worker and coordinator writes share the one ring.
  constexpr std::uint64_t kCapacity = 512;
  const SystemOptions opts = quiet_options();
  const auto backend = make_system("Chiron", make_finra(5), opts);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("sim_threads " + std::to_string(threads));
    obs::FlightRecorder recorder(kCapacity);
    recorder.set_enabled(true);
    obs::MetricsRegistry metrics;
    ClusterConfig config = faulty_config();
    config.nodes = 4;
    config.router = RouterPolicy::kWarmAffinity;
    config.horizon_ms = 300.0;
    config.offered_rps = 40000.0;
    config.sim_threads = threads;
    config.recorder = &recorder;
    config.metrics = &metrics;
    ClusterSimulator(config, opts.params).run(*backend, 1);
    if (threads > 1) {
      EXPECT_GT(metrics.counter("cluster.sim.fanout_windows").value(), 0);
    }

    const std::uint64_t recorded = recorder.recorded_count();
    ASSERT_GT(recorded, 8 * kCapacity);
    const std::vector<obs::RecorderEvent> kept = recorder.snapshot();
    ASSERT_EQ(kept.size(), kCapacity);
    EXPECT_EQ(recorder.dropped_count(), recorded - kCapacity);
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(kept[i].seq, recorded - kCapacity + i) << "slot " << i;
    }
  }
}

TEST(ClusterFaultTest, MintedIdsKeepSeededRunsDeterministic) {
  // Request ids come from a process-global mint, so two identical seeded
  // runs get different id ranges — but the simulated outcome is byte-for-
  // byte identical because fault decisions hash the arrival index.
  const SystemOptions opts = quiet_options();
  const Workflow wf = make_slapp();
  const auto backend = make_system("Faastlane", wf, opts);
  ClusterSimulator sim(faulty_config(), opts.params);
  const ClusterResult a = sim.run(*backend, 1);
  const ClusterResult b = sim.run(*backend, 1);
  EXPECT_NE(a.request_id_base, b.request_id_base);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_DOUBLE_EQ(a.p99_ms, b.p99_ms);
}

}  // namespace
}  // namespace chiron

// Determinism of the deploy-path performance layer: the parallel /
// speculative / memoized search must commit byte-for-byte the plan the
// plain sequential uncached search commits, with identical telemetry.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pgp.h"
#include "core/plan_io.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

struct Observed {
  std::string plan_json;
  TimeMs predicted = 0.0;
  bool slo_met = false;
  std::size_t processes = 0;
  PgpStats stats;
};

Observed run(const Workflow& wf, TimeMs slo, std::size_t threads,
             bool cache, IsolationMode mode = IsolationMode::kNative) {
  PgpConfig config;
  config.mode = mode;
  config.deploy_threads = threads;
  config.prediction_cache = cache;
  const PgpScheduler scheduler(config, wf, true_behaviors(wf));
  const PgpResult result = scheduler.schedule(slo);
  Observed o;
  o.plan_json = serialize_plan(result.plan);
  o.predicted = result.predicted_latency_ms;
  o.slo_met = result.slo_met;
  o.processes = result.processes;
  o.stats = result.stats;
  return o;
}

void expect_same(const Observed& ref, const Observed& got,
                 const std::string& label) {
  EXPECT_EQ(ref.plan_json, got.plan_json) << label;
  EXPECT_DOUBLE_EQ(ref.predicted, got.predicted) << label;
  EXPECT_EQ(ref.slo_met, got.slo_met) << label;
  EXPECT_EQ(ref.processes, got.processes) << label;
  EXPECT_EQ(ref.stats.outer_iterations, got.stats.outer_iterations) << label;
  EXPECT_EQ(ref.stats.kl_evaluations, got.stats.kl_evaluations) << label;
  EXPECT_EQ(ref.stats.predictor_calls, got.stats.predictor_calls) << label;
}

TEST(PgpParityTest, DeployThreadsAndCacheDoNotChangeThePlan) {
  const std::vector<Workflow> workflows = {
      make_finra(5),  make_finra(50),       make_social_network(),
      make_slapp(),   make_movie_reviewing()};
  for (const Workflow& wf : workflows) {
    for (TimeMs slo : {120.0, 400.0, 5000.0}) {
      // Reference: sequential, uncached — the original Algorithm 2 search.
      const Observed ref = run(wf, slo, /*threads=*/1, /*cache=*/false);
      const Observed cached = run(wf, slo, 1, true);
      const Observed parallel = run(wf, slo, 4, false);
      const Observed both = run(wf, slo, 4, true);
      const std::string label = wf.name() + " slo=" + std::to_string(slo);
      expect_same(ref, cached, label + " [cache]");
      expect_same(ref, parallel, label + " [pool]");
      expect_same(ref, both, label + " [cache+pool]");
    }
  }
}

TEST(PgpParityTest, ParityHoldsUnderMpkAndPoolIsolation) {
  const Workflow wf = make_finra(30);
  for (IsolationMode mode : {IsolationMode::kMpk, IsolationMode::kPool}) {
    const Observed ref = run(wf, 250.0, 1, false, mode);
    const Observed fast = run(wf, 250.0, 4, true, mode);
    expect_same(ref, fast,
                "mode=" + std::to_string(static_cast<int>(mode)));
  }
}

TEST(PgpParityTest, RepeatedSchedulesAreIdempotent) {
  // A warm cache (second schedule on the same scheduler) must not shift
  // any observable output.
  const Workflow wf = make_finra(25);
  PgpConfig config;
  config.deploy_threads = 4;
  const PgpScheduler scheduler(config, wf, true_behaviors(wf));
  const PgpResult cold = scheduler.schedule(200.0);
  const PgpResult warm = scheduler.schedule(200.0);
  EXPECT_EQ(serialize_plan(cold.plan), serialize_plan(warm.plan));
  EXPECT_DOUBLE_EQ(cold.predicted_latency_ms, warm.predicted_latency_ms);
  EXPECT_EQ(cold.stats.outer_iterations, warm.stats.outer_iterations);
  EXPECT_EQ(cold.stats.predictor_calls, warm.stats.predictor_calls);
}

}  // namespace
}  // namespace chiron

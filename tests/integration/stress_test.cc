// Stress / property sweep: the whole pipeline must hold its invariants on
// arbitrary random workflows, not just the paper benchmarks.
#include <gtest/gtest.h>

#include "core/chiron.h"
#include "core/pgp.h"
#include "platform/cluster.h"
#include "platform/plan_backend.h"
#include "workflow/synthetic.h"

namespace chiron {
namespace {

std::vector<FunctionBehavior> true_behaviors(const Workflow& wf) {
  std::vector<FunctionBehavior> out;
  for (const FunctionSpec& f : wf.functions()) out.push_back(f.behavior);
  return out;
}

class RandomWorkflowSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomWorkflowSweep, PgpPlansAreValidAndSloConsistent) {
  SyntheticSpec spec;
  spec.max_parallelism = 10;
  Rng rng(1000 + GetParam());
  const Workflow wf = make_synthetic_workflow(
      spec, rng, "stress-" + std::to_string(GetParam()));

  PgpScheduler scheduler(PgpConfig{}, wf, true_behaviors(wf));
  // Sweep three SLO tightness levels around the loosest plan.
  const PgpResult loose = scheduler.schedule(1e9);
  for (double factor : {1.0, 0.6, 0.35}) {
    const TimeMs slo = loose.predicted_latency_ms * factor;
    const PgpResult result = scheduler.schedule(slo);
    ASSERT_NO_THROW(result.plan.validate(wf));
    if (result.slo_met) {
      EXPECT_LE(result.predicted_latency_ms, slo + 1e-6);
      // The (noise-free) simulated latency respects the prediction's
      // conservative envelope.
      NoiseConfig quiet;
      quiet.jitter_sigma = 0.0;
      quiet.thread_contention = 0.0;
      quiet.run_sigma = 0.0;
      WrapPlanBackend backend("stress", RuntimeParams::defaults(), wf,
                              result.plan, quiet);
      Rng run_rng(5);
      EXPECT_LE(backend.run(run_rng).e2e_latency_ms, slo * 1.03);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkflowSweep, ::testing::Range(0, 12));

class ConflictedWorkflowSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConflictedWorkflowSweep, ConflictsAreIsolatedInAnyPlan) {
  SyntheticSpec spec;
  spec.max_parallelism = 8;
  spec.file_writer_probability = 0.4;
  spec.conflict_tag_probability = 0.25;
  Rng rng(2000 + GetParam());
  const Workflow wf = make_synthetic_workflow(
      spec, rng, "conflict-" + std::to_string(GetParam()));
  PgpScheduler scheduler(PgpConfig{}, wf, true_behaviors(wf));
  const PgpResult result = scheduler.schedule(1e9);
  // validate() enforces the §3.4 sharing constraints — throwing here
  // would mean PGP co-located conflicting functions.
  EXPECT_NO_THROW(result.plan.validate(wf));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictedWorkflowSweep,
                         ::testing::Range(0, 10));

TEST(StressTest, AllThreadWorkflowHandlesWideStage) {
  // 64 functions in one stage, all threads: a zero-noise backend serves
  // the prediction bit for bit, even at width.
  SyntheticSpec spec;
  spec.min_stages = 1;
  spec.max_stages = 1;
  spec.min_parallelism = 64;
  spec.max_parallelism = 64;
  spec.min_latency_ms = 0.2;
  spec.max_latency_ms = 3.0;
  Rng rng(77);
  const Workflow wf = make_synthetic_workflow(spec, rng, "wide");
  Predictor predictor(
      PredictorConfig{RuntimeParams::defaults(), Runtime::kPython3, 1.0},
      true_behaviors(wf));
  const WrapPlan plan = faastlane_t_plan(wf);
  const TimeMs predicted = predictor.workflow_latency(plan);
  NoiseConfig quiet;
  quiet.jitter_sigma = 0.0;
  quiet.thread_contention = 0.0;
  quiet.run_sigma = 0.0;
  quiet.gil_handoff_ms = 0.0;
  WrapPlanBackend backend("wide", RuntimeParams::defaults(), wf, plan, quiet);
  Rng run_rng(8);
  EXPECT_EQ(backend.run(run_rng).e2e_latency_ms, predicted);
}

class PredictorAgreementSweep : public ::testing::TestWithParam<int> {};

TEST_P(PredictorAgreementSweep, PredictorMatchesNoiselessSimulator) {
  // With every unmodeled effect switched off, the Predictor and the
  // ground-truth backend are built from the same engines and equations,
  // so they must agree exactly on ANY workflow and plan shape.
  SyntheticSpec spec;
  spec.max_parallelism = 8;
  Rng rng(3000 + GetParam());
  const Workflow wf = make_synthetic_workflow(
      spec, rng, "agree-" + std::to_string(GetParam()));
  Predictor predictor(
      PredictorConfig{RuntimeParams::defaults(), Runtime::kPython3, 1.0},
      true_behaviors(wf));
  NoiseConfig quiet;
  quiet.jitter_sigma = 0.0;
  quiet.thread_contention = 0.0;
  quiet.run_sigma = 0.0;
  quiet.gil_handoff_ms = 0.0;
  quiet.model_skew = 0.0;
  for (const WrapPlan& plan :
       {sand_plan(wf), faastlane_plan(wf), faastlane_t_plan(wf),
        faastlane_plus_plan(wf, 2), faastlane_plus_plan(wf, 3),
        pool_plan(wf)}) {
    WrapPlanBackend backend("agree", RuntimeParams::defaults(), wf, plan,
                            quiet);
    Rng run_rng(11);
    const TimeMs actual = backend.run(run_rng).e2e_latency_ms;
    const TimeMs predicted = predictor.workflow_latency(plan);
    EXPECT_EQ(predicted, actual)
        << wf.name() << " plan with " << plan.sandbox_count() << " wraps";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PredictorAgreementSweep,
                         ::testing::Range(0, 10));

TEST(StressTest, ChironHandlesSingleFunctionWorkflow) {
  std::vector<FunctionSpec> fns(1);
  fns[0].name = "only";
  fns[0].behavior = cpu_bound(3.0);
  const Workflow wf("single", std::move(fns), {{{0}}});
  Chiron manager(ChironConfig{});
  const Deployment d = manager.deploy(wf, 50.0);
  EXPECT_TRUE(d.slo_met);
  EXPECT_EQ(d.plan.sandbox_count(), 1u);
  EXPECT_EQ(d.orchestrators.size(), 1u);
}

class FaultSweep : public ::testing::TestWithParam<int> {};

TEST_P(FaultSweep, ConservationHoldsOnArbitraryWorkflowsUnderFaults) {
  // The cluster simulator's terminal-state invariant must hold for any
  // workflow shape and any fault mix, and a seeded run must replay
  // exactly — attempt accounting and cancellation paths included.
  SyntheticSpec spec;
  spec.max_parallelism = 6;
  Rng rng(4000 + GetParam());
  const Workflow wf = make_synthetic_workflow(
      spec, rng, "faulty-" + std::to_string(GetParam()));
  PgpScheduler scheduler(PgpConfig{}, wf, true_behaviors(wf));
  const PgpResult planned = scheduler.schedule(1e9);
  NoiseConfig quiet;
  quiet.jitter_sigma = 0.0;
  quiet.thread_contention = 0.0;
  quiet.run_sigma = 0.0;
  WrapPlanBackend backend("faulty", RuntimeParams::defaults(), wf,
                          planned.plan, quiet);

  ClusterConfig config;
  config.nodes = 2;
  config.horizon_ms = 3000.0;
  config.offered_rps = 40.0;
  config.seed = 0xC1057E4 + static_cast<std::uint64_t>(GetParam());
  config.faults.cold_start_failure = 0.05 * (GetParam() % 3);
  config.faults.crash = 0.08 * (GetParam() % 2 + 1);
  config.faults.straggler = 0.1;
  config.faults.seed = 500 + static_cast<std::uint64_t>(GetParam());
  config.retry.max_attempts = 1 + GetParam() % 4;
  config.retry.timeout_ms = GetParam() % 2 == 0 ? 1200.0 : 0.0;
  ClusterSimulator sim(config, RuntimeParams::defaults());

  const ClusterResult a = sim.run(backend, 1);
  EXPECT_EQ(a.offered, a.completed + a.timed_out + a.dropped);
  if (config.retry.timeout_ms > 0.0 && a.completed > 0) {
    EXPECT_LE(a.p99_ms, config.retry.timeout_ms);
  }
  const ClusterResult b = sim.run(backend, 1);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.timed_out, b.timed_out);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_DOUBLE_EQ(a.mean_ms, b.mean_ms);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSweep, ::testing::Range(0, 8));

TEST(StressTest, ProfilerSurvivesExtremeNoise) {
  ProfilerConfig config;
  config.jitter_sigma = 0.5;           // wild run-to-run variance
  config.strace_block_overhead = 1.5;  // pathological tracing overhead
  Profiler profiler(config, Rng(9));
  FunctionSpec spec;
  spec.name = "noisy";
  spec.behavior = disk_io_bound(5.0, 15.0, 3);
  const Profile p = profiler.profile(spec);
  // The reconstruction is still structurally sane: positive latency,
  // blocks within it, behaviour totals consistent.
  EXPECT_GT(p.solo_latency_ms, 0.0);
  EXPECT_NEAR(p.behavior.solo_latency(), p.solo_latency_ms, 1e-9);
  for (const BlockPeriod& bp : p.block_periods) {
    EXPECT_GE(bp.start, 0.0);
    EXPECT_LE(bp.end, p.solo_latency_ms + 1e-9);
  }
}

}  // namespace
}  // namespace chiron

#include "platform/plan_backend.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/predictor.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

NoiseConfig no_noise() {
  NoiseConfig noise;
  noise.jitter_sigma = 0.0;
  noise.thread_contention = 0.0;
  noise.run_sigma = 0.0;
  return noise;
}

WrapPlanBackend make_backend(const Workflow& wf, WrapPlan plan,
                             NoiseConfig noise = no_noise()) {
  return WrapPlanBackend("test", RuntimeParams::defaults(), wf,
                         std::move(plan), noise);
}

TEST(PlanBackendTest, RunCoversEveryFunction) {
  const Workflow wf = make_social_network();
  const auto backend = make_backend(wf, faastlane_plan(wf));
  Rng rng(1);
  const RunResult result = backend.run(rng);
  EXPECT_EQ(result.functions.size(), wf.function_count());
  EXPECT_EQ(result.stage_latency_ms.size(), wf.stage_count());
}

TEST(PlanBackendTest, LatencyIsSumOfStageLatencies) {
  const Workflow wf = make_slapp();
  const auto backend = make_backend(wf, sand_plan(wf));
  Rng rng(2);
  const RunResult result = backend.run(rng);
  TimeMs sum = 0.0;
  for (TimeMs t : result.stage_latency_ms) sum += t;
  EXPECT_NEAR(result.e2e_latency_ms, sum, 1e-9);
}

TEST(PlanBackendTest, FunctionTimelinesAreOrdered) {
  const Workflow wf = make_finra(10);
  const auto backend = make_backend(wf, faastlane_plan(wf));
  Rng rng(3);
  const RunResult result = backend.run(rng);
  for (const FunctionTimeline& tl : result.functions) {
    EXPECT_LE(tl.invoke_ms, tl.start_exec_ms + 1e-9);
    EXPECT_LE(tl.start_exec_ms, tl.finish_ms + 1e-9);
    EXPECT_GE(tl.latency(), 0.0);
  }
}

TEST(PlanBackendTest, StageFunctionsFinishWithinStageWindow) {
  const Workflow wf = make_finra(5);
  const auto backend = make_backend(wf, faastlane_plan(wf));
  Rng rng(4);
  const RunResult result = backend.run(rng);
  TimeMs stage1_end = result.stage_latency_ms[0];
  for (const FunctionTimeline& tl : result.functions) {
    if (tl.id <= 1) {  // stage-0 fetch functions
      EXPECT_LE(tl.finish_ms, stage1_end + 1e-6);
    } else {
      EXPECT_GE(tl.invoke_ms, stage1_end - 1e-6);
    }
  }
}

TEST(PlanBackendTest, DeterministicWithoutNoise) {
  const Workflow wf = make_slapp_v();
  const auto backend = make_backend(wf, faastlane_plan(wf));
  Rng r1(5), r2(6);
  EXPECT_DOUBLE_EQ(backend.run(r1).e2e_latency_ms,
                   backend.run(r2).e2e_latency_ms);
}

TEST(PlanBackendTest, JitterProducesVariation) {
  const Workflow wf = make_slapp_v();
  NoiseConfig noise;
  noise.jitter_sigma = 0.05;
  const auto backend = make_backend(wf, faastlane_plan(wf), noise);
  Rng rng(7);
  const TimeMs a = backend.run(rng).e2e_latency_ms;
  const TimeMs b = backend.run(rng).e2e_latency_ms;
  EXPECT_NE(a, b);
  EXPECT_NEAR(a, b, a * 0.5);
}

TEST(PlanBackendTest, ThreadPlanBeatsProcessPlanForFewFunctions) {
  // Obs. 3: at FINRA-5 scale, thread execution's startup savings beat the
  // cost of pseudo-parallelism.
  const Workflow wf = make_finra(5);
  const auto threads = make_backend(wf, faastlane_t_plan(wf));
  const auto processes = make_backend(wf, faastlane_plan(wf));
  Rng r1(8), r2(8);
  EXPECT_LT(threads.run(r1).e2e_latency_ms, processes.run(r2).e2e_latency_ms);
}

TEST(PlanBackendTest, ProcessPlanBeatsThreadPlanForManyFunctions) {
  // Obs. 3's flip side: at FINRA-50 the GIL serialisation dominates.
  const Workflow wf = make_finra(50);
  NoiseConfig noise;           // include the modeled contention residual
  noise.jitter_sigma = 0.0;
  const auto threads = make_backend(wf, faastlane_t_plan(wf), noise);
  const auto processes = make_backend(wf, faastlane_plan(wf), noise);
  Rng r1(9), r2(9);
  EXPECT_GT(threads.run(r1).e2e_latency_ms, processes.run(r2).e2e_latency_ms);
}

TEST(PlanBackendTest, PoolIsFasterThanForkingForParallelCpu) {
  const Workflow wf = make_finra(25);
  WrapPlan pool = faastlane_plan(wf);
  pool.mode = IsolationMode::kPool;
  const auto pool_backend = make_backend(wf, std::move(pool));
  const auto fork_backend = make_backend(wf, faastlane_plan(wf));
  Rng r1(10), r2(10);
  EXPECT_LT(pool_backend.run(r1).e2e_latency_ms,
            fork_backend.run(r2).e2e_latency_ms);
}

TEST(PlanBackendTest, CpuCapSlowsExecution) {
  const Workflow wf = make_finra(20);
  WrapPlan capped = sand_plan(wf);
  capped.cpu_cap = 2;
  const auto free_backend = make_backend(wf, sand_plan(wf));
  const auto capped_backend = make_backend(wf, std::move(capped));
  Rng r1(11), r2(11);
  EXPECT_GE(capped_backend.run(r1).e2e_latency_ms,
            free_backend.run(r2).e2e_latency_ms - 1e-6);
}

TEST(PlanBackendTest, MpkAddsExecutionOverheadToThreads) {
  const Workflow wf = make_finra(10);
  WrapPlan mpk = faastlane_t_plan(wf);
  mpk.mode = IsolationMode::kMpk;
  const auto native = make_backend(wf, faastlane_t_plan(wf));
  const auto mpk_backend = make_backend(wf, std::move(mpk));
  Rng r1(12), r2(12);
  EXPECT_GT(mpk_backend.run(r1).e2e_latency_ms,
            native.run(r2).e2e_latency_ms);
}

TEST(PlanBackendTest, ResourcesTrackPlanShape) {
  const Workflow wf = make_finra(10);
  const auto sand = make_backend(wf, sand_plan(wf));
  const auto threads = make_backend(wf, faastlane_t_plan(wf));
  const ResourceUsage rs = sand.resources();
  const ResourceUsage rt = threads.resources();
  EXPECT_EQ(rs.sandboxes, 1u);
  EXPECT_EQ(rt.sandboxes, 1u);
  // 10 processes need 10 CPUs; one thread group needs 1.
  EXPECT_GT(rs.cpus, rt.cpus);
  EXPECT_GT(rs.memory_mb, rt.memory_mb);
}

TEST(PlanBackendTest, PoolUsesMoreMemoryThanThreads) {
  const Workflow wf = make_finra(10);
  WrapPlan pool = pool_plan(wf);
  const auto pool_backend = make_backend(wf, std::move(pool));
  const auto thread_backend = make_backend(wf, faastlane_t_plan(wf));
  EXPECT_GT(pool_backend.resources().memory_mb,
            thread_backend.resources().memory_mb * 2.0);
}

TEST(PlanBackendTest, NoStateTransitionsBilled) {
  const Workflow wf = make_slapp();
  const auto backend = make_backend(wf, faastlane_plan(wf));
  Rng rng(13);
  EXPECT_EQ(backend.run(rng).state_transitions, 0u);
}

// The ground truth reads the Predictor's cost model, so with every
// NoiseConfig term at zero and the true behaviours as profiles the served
// latency IS the prediction, bit for bit, over every valid fixed plan,
// isolation mode, runtime and CPU cap.
TEST(PlanBackendTest, ZeroNoiseServesExactlyThePrediction) {
  NoiseConfig zero = no_noise();
  zero.gil_handoff_ms = 0.0;
  zero.model_skew = 0.0;
  std::size_t checked = 0;
  for (const Workflow& base :
       {make_social_network(), make_movie_reviewing(), make_slapp(),
        make_slapp_v(), make_finra(5), make_finra(50)}) {
    for (Runtime rt : {Runtime::kPython3, Runtime::kJava, Runtime::kNodeJs}) {
      std::vector<FunctionSpec> fns = base.functions();
      for (FunctionSpec& f : fns) f.runtime = rt;
      const Workflow wf(base.name(), std::move(fns), base.stages());
      std::vector<FunctionBehavior> profiles;
      for (const FunctionSpec& f : wf.functions()) {
        profiles.push_back(f.behavior);
      }
      const Predictor predictor(
          PredictorConfig{RuntimeParams::defaults(), rt, 1.0}, profiles);
      for (const WrapPlan& shape :
           {sand_plan(wf), faastlane_plan(wf), faastlane_t_plan(wf),
            faastlane_plus_plan(wf), pool_plan(wf), one_to_one_plan(wf)}) {
        for (IsolationMode mode :
             {IsolationMode::kNative, IsolationMode::kMpk,
              IsolationMode::kSfi, IsolationMode::kPool}) {
          for (std::size_t cap : {0u, 1u, 2u, 4u}) {
            WrapPlan plan = shape;
            plan.mode = mode;
            plan.cpu_cap = cap;
            try {
              plan.validate(wf);
            } catch (const std::invalid_argument&) {
              continue;  // e.g. more threads than MPK has protection keys
            }
            const TimeMs predicted = predictor.workflow_latency(plan);
            const auto backend = make_backend(wf, plan, zero);
            Rng rng(7);
            EXPECT_EQ(backend.run(rng).e2e_latency_ms, predicted)
                << wf.name() << " " << to_string(rt) << " "
                << to_string(mode) << " cap " << cap << " stages "
                << plan.stages.size() << " peak wraps "
                << plan.sandbox_count();
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 1000u);
}

TEST(PlanBackendTest, MeanLatencyAveragesRuns) {
  const Workflow wf = make_slapp();
  const auto backend = make_backend(wf, faastlane_plan(wf));
  Rng rng(14);
  const TimeMs mean = backend.mean_latency(rng, 5);
  Rng rng2(14);
  const TimeMs single = backend.run(rng2).e2e_latency_ms;
  EXPECT_NEAR(mean, single, 1e-9);  // deterministic without noise
}

// latency() is run()'s e2e latency without the timelines. Over 200 seeded
// requests per plan the two agree bit for bit and leave their Rngs in the
// same state (raw lanes and the Box-Muller spare), so a served run cannot
// tell which entry it called. The plans cover native GIL processes and
// threads, MPK, the true-parallel pool, a CPU cap below the process count
// (the one path that still records spans), zero noise, and several wraps
// per stage (the invocation-offset draws).
TEST(PlanBackendTest, LatencyMatchesRunDrawForDraw) {
  const Workflow wf = make_finra(10);
  WrapPlan mpk = faastlane_t_plan(wf);
  mpk.mode = IsolationMode::kMpk;
  WrapPlan pool = faastlane_plan(wf);
  pool.mode = IsolationMode::kPool;
  WrapPlan capped = sand_plan(wf);
  capped.cpu_cap = 2;
  NoiseConfig zero = no_noise();
  zero.gil_handoff_ms = 0.0;
  zero.model_skew = 0.0;
  struct Case {
    const char* name;
    WrapPlan plan;
    NoiseConfig noise;
  };
  const Case cases[] = {
      {"native processes", faastlane_plan(wf), NoiseConfig{}},
      {"native threads", faastlane_t_plan(wf), NoiseConfig{}},
      {"mpk", mpk, NoiseConfig{}},
      {"pool", pool, NoiseConfig{}},
      {"cpu capped", capped, NoiseConfig{}},
      {"zero noise", faastlane_plan(wf), zero},
      {"several wraps", faastlane_plus_plan(wf, 3), NoiseConfig{}},
  };
  for (const Case& c : cases) {
    const auto backend = make_backend(wf, c.plan, c.noise);
    const WrapPlanBackend copy = backend;  // its behaviours go by position
    Rng r1(29), r2(29);
    for (int i = 0; i < 200; ++i) {
      ASSERT_EQ(copy.latency(r1), backend.run(r2).e2e_latency_ms)
          << c.name << " request " << i;
    }
    EXPECT_EQ(r1(), r2()) << c.name;
    EXPECT_EQ(r1.normal(), r2.normal()) << c.name;
  }
}

// Property: per-wrap count sweep — more wraps per stage adds invocation
// offsets but reduces per-wrap fork block; extremes are both worse than
// the middle for large parallel stages (the trade-off PGP exploits).
class WrapCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WrapCountSweep, AllWrapCountsAreValidAndFinite) {
  const Workflow wf = make_finra(24);
  const WrapPlan plan = faastlane_plus_plan(wf, GetParam());
  const auto backend = make_backend(wf, plan);
  Rng rng(15);
  const RunResult result = backend.run(rng);
  EXPECT_GT(result.e2e_latency_ms, 0.0);
  EXPECT_TRUE(std::isfinite(result.e2e_latency_ms));
}

INSTANTIATE_TEST_SUITE_P(PerSandbox, WrapCountSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 12, 24));

}  // namespace
}  // namespace chiron

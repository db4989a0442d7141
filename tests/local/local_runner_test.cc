#include "local/local_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "workflow/benchmarks.h"

namespace chiron {
namespace {

// Live-thread tests run at 0.25x time scale with small behaviours to stay
// fast, and use generous tolerances (OS scheduling noise).
LocalConfig fast_config() {
  LocalConfig config;
  config.time_scale = 0.25;
  return config;
}

Workflow tiny_workflow() {
  std::vector<FunctionSpec> fns(4);
  fns[0] = {.name = "entry", .behavior = cpu_bound(4.0)};
  fns[1] = {.name = "left", .behavior = cpu_bound(8.0)};
  fns[2] = {.name = "right", .behavior = alternating({1.0, 10.0, 1.0})};
  fns[3] = {.name = "exit", .behavior = cpu_bound(2.0)};
  return Workflow("tiny", std::move(fns), {{{0}}, {{1, 2}}, {{3}}});
}

TEST(LocalRunnerTest, RunsEveryFunctionOnce) {
  const Workflow wf = tiny_workflow();
  LocalDeployment deployment(wf, faastlane_plan(wf), fast_config());
  const LocalRunResult result = deployment.invoke("req");
  ASSERT_EQ(result.functions.size(), wf.function_count());
  std::vector<int> seen(wf.function_count(), 0);
  for (const LocalFunctionResult& fr : result.functions) {
    ++seen[fr.id];
    EXPECT_GE(fr.finish_ms, fr.start_ms);
  }
  for (int count : seen) EXPECT_EQ(count, 1);
  EXPECT_GT(result.e2e_latency_ms, 0.0);
}

TEST(LocalRunnerTest, StagesExecuteInOrder) {
  const Workflow wf = tiny_workflow();
  LocalDeployment deployment(wf, faastlane_plan(wf), fast_config());
  const LocalRunResult result = deployment.invoke("x");
  TimeMs entry_finish = 0.0, exit_start = 1e18, mid_min_start = 1e18;
  for (const LocalFunctionResult& fr : result.functions) {
    if (fr.id == 0) entry_finish = fr.finish_ms;
    if (fr.id == 1 || fr.id == 2) {
      mid_min_start = std::min(mid_min_start, fr.start_ms);
    }
    if (fr.id == 3) exit_start = fr.start_ms;
  }
  EXPECT_GE(mid_min_start, entry_finish - 1.0);
  EXPECT_GE(exit_start, mid_min_start);
}

TEST(LocalRunnerTest, DefaultKernelsProduceSyntheticOutput) {
  const Workflow wf = tiny_workflow();
  LocalDeployment deployment(wf, faastlane_t_plan(wf), fast_config());
  const LocalRunResult result = deployment.invoke("abc");
  // The final stage's synthetic output names the function.
  EXPECT_NE(result.output.find("exit("), std::string::npos);
}

TEST(LocalRunnerTest, RegisteredFunctionsRun) {
  const Workflow wf = tiny_workflow();
  LocalDeployment deployment(wf, faastlane_plan(wf), fast_config());
  std::atomic<int> calls{0};
  deployment.register_function("left", [&](const Payload& in) {
    ++calls;
    return "LEFT[" + in + "]";
  });
  const LocalRunResult result = deployment.invoke("seed");
  EXPECT_EQ(calls.load(), 1);
  bool found = false;
  for (const LocalFunctionResult& fr : result.functions) {
    if (fr.id == 1) {
      EXPECT_EQ(fr.output.rfind("LEFT[", 0), 0u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LocalRunnerTest, RegisterUnknownFunctionThrows) {
  const Workflow wf = tiny_workflow();
  LocalDeployment deployment(wf, faastlane_plan(wf), fast_config());
  EXPECT_THROW(deployment.register_function("ghost", [](const Payload& p) {
    return p;
  }),
               std::invalid_argument);
}

TEST(LocalRunnerTest, InvalidPlanRejectedAtConstruction) {
  const Workflow wf = tiny_workflow();
  WrapPlan broken = faastlane_plan(wf);
  broken.stages.pop_back();
  EXPECT_THROW(LocalDeployment(wf, broken, fast_config()),
               std::invalid_argument);
  LocalConfig bad = fast_config();
  bad.time_scale = 0.0;
  EXPECT_THROW(LocalDeployment(wf, faastlane_plan(wf), bad),
               std::invalid_argument);
}

TEST(LocalRunnerTest, ThreadGroupSerialisesCpuOnSharedInterpreter) {
  // Two 10 ms CPU functions as threads of one group: the emulated GIL
  // makes the wall clock ~sum, not ~max (regardless of core count).
  std::vector<FunctionSpec> fns(2);
  fns[0] = {.name = "a", .behavior = cpu_bound(10.0)};
  fns[1] = {.name = "b", .behavior = cpu_bound(10.0)};
  const Workflow wf("pair", std::move(fns), {{{0, 1}}});
  LocalConfig config;  // full speed: 20 ms total
  config.emulate_overheads = false;
  LocalDeployment deployment(wf, faastlane_t_plan(wf), config);
  const LocalRunResult result = deployment.invoke("x");
  EXPECT_GE(result.e2e_latency_ms, 18.0);
}

TEST(LocalRunnerTest, BlocksOverlapAcrossThreads) {
  // Two pure sleeps overlap even on a shared interpreter.
  std::vector<FunctionSpec> fns(2);
  fns[0] = {.name = "a", .behavior = alternating({0.0, 30.0})};
  fns[1] = {.name = "b", .behavior = alternating({0.0, 30.0})};
  const Workflow wf("sleepers", std::move(fns), {{{0, 1}}});
  LocalConfig config;
  config.emulate_overheads = false;
  LocalDeployment deployment(wf, faastlane_t_plan(wf), config);
  const LocalRunResult result = deployment.invoke("x");
  EXPECT_LT(result.e2e_latency_ms, 55.0);
}

TEST(LocalRunnerTest, PoolModeGivesEachFunctionItsOwnInterpreter) {
  // Two pure sleepers under a pool plan still overlap (trivially), and —
  // the distinguishing property — registered functions do not serialise
  // on a shared GIL: both run concurrently.
  std::vector<FunctionSpec> fns(2);
  fns[0] = {.name = "a", .behavior = alternating({0.0, 25.0})};
  fns[1] = {.name = "b", .behavior = alternating({0.0, 25.0})};
  const Workflow wf("poolpair", std::move(fns), {{{0, 1}}});
  LocalConfig config;
  config.emulate_overheads = false;
  LocalDeployment deployment(wf, pool_plan(wf), config);
  deployment.register_function("a", [](const Payload&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return Payload("A");
  });
  deployment.register_function("b", [](const Payload&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    return Payload("B");
  });
  const LocalRunResult result = deployment.invoke("x");
  // Sequential (shared interpreter) would be >= 50 ms; parallel ~25 ms.
  EXPECT_LT(result.e2e_latency_ms, 45.0);
}

TEST(LocalRunnerTest, SiblingThreadsStartOneModelledSpawnGapApart) {
  // An MPK plan pays the thread clone plus the protection-key setup per
  // sibling thread. Sleeps guarantee only a lower bound on the start.
  std::vector<FunctionSpec> fns(2);
  fns[0].name = "first";
  fns[1].name = "second";
  for (FunctionSpec& f : fns) f.behavior = cpu_bound(1.0);
  const Workflow wf("pair", std::move(fns), {{{0, 1}}});
  WrapPlan plan = faastlane_t_plan(wf);
  plan.mode = IsolationMode::kMpk;
  LocalConfig config;
  config.params.mpk.startup_ms = 20.0;
  LocalDeployment deployment(wf, plan, config);
  const LocalRunResult result = deployment.invoke("x");
  const TimeMs gap =
      config.params.spawn_gap_ms(Runtime::kPython3, IsolationMode::kMpk);
  ASSERT_EQ(result.functions.size(), 2u);
  for (const LocalFunctionResult& fr : result.functions) {
    if (fr.id == 1) {
      EXPECT_GE(fr.start_ms, gap - 1e-6);
    }
  }
}

TEST(LocalRunnerTest, MatchesChironPlanFromDeployment) {
  // End-to-end: PGP plan -> local execution completes and respects stage
  // structure for a real benchmark workflow (scaled down for speed).
  const Workflow wf = make_movie_reviewing();
  LocalDeployment deployment(wf, faastlane_plan(wf), fast_config());
  const LocalRunResult result = deployment.invoke("review");
  EXPECT_EQ(result.functions.size(), wf.function_count());
  EXPECT_GT(result.e2e_latency_ms, 0.0);
  EXPECT_LT(result.e2e_latency_ms, 1000.0);
}

}  // namespace
}  // namespace chiron

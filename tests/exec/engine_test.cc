#include "exec/engine.h"

#include <gtest/gtest.h>

#include <vector>

#include "exec/emulated_gil.h"
#include "obs/recorder.h"
#include "runtime/gil.h"

namespace chiron {
namespace {

// Live-thread tests use generous tolerances: wall-clock on a loaded
// single-core CI box is noisy, and the point is semantic agreement with
// the simulator, not microsecond precision.

TEST(SpinTest, CalibrationIsPositive) {
  EXPECT_GT(spin_iterations_per_ms(), 1000.0);
}

TEST(SpinTest, SpinDurationIsApproximatelyRight) {
  const auto t0 = std::chrono::steady_clock::now();
  spin_for_ms(20.0);
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  EXPECT_GE(ms, 19.0);
  EXPECT_LT(ms, 60.0);
}

TEST(EmulatedGilTest, MutualExclusion) {
  EmulatedGil gil(5.0);
  gil.acquire();
  EXPECT_EQ(gil.waiters(), 0);
  gil.release();
}

TEST(EmulatedGilTest, ShouldYieldRequiresWaitersAndElapsedInterval) {
  EmulatedGil gil(5.0);
  gil.acquire();
  EXPECT_FALSE(gil.should_yield());  // no waiters
  gil.release();
}

TEST(ExecEngineTest, SingleCpuTaskMatchesSimulator) {
  std::vector<ThreadTask> tasks{{cpu_bound(30.0), 0.0}};
  const InterleaveResult real = execute_threads_gil(tasks, 5.0);
  GilSimulator sim(5.0);
  const InterleaveResult predicted = sim.run(tasks);
  EXPECT_NEAR(real.makespan, predicted.makespan, predicted.makespan * 0.5);
  EXPECT_GE(real.makespan, predicted.makespan * 0.9);
}

TEST(ExecEngineTest, GilSerializesCpuThreads) {
  // Two 25 ms CPU threads under the GIL must take ~50 ms (not ~25 ms),
  // regardless of core count.
  std::vector<ThreadTask> tasks{{cpu_bound(25.0), 0.0},
                                {cpu_bound(25.0), 0.0}};
  const InterleaveResult real = execute_threads_gil(tasks, 5.0);
  EXPECT_GE(real.makespan, 45.0);
}

TEST(ExecEngineTest, BlocksOverlapUnderGil) {
  // Sleeping threads release the GIL: two 40 ms sleeps overlap.
  std::vector<ThreadTask> tasks{{alternating({0.0, 40.0}), 0.0},
                                {alternating({0.0, 40.0}), 0.0}};
  const InterleaveResult real = execute_threads_gil(tasks, 5.0);
  EXPECT_LT(real.makespan, 70.0);
}

TEST(ExecEngineTest, BlockOverlapsCpuUnderGil) {
  // A sleeper and a spinner: Algorithm 1 predicts ~max(40, 30).
  std::vector<ThreadTask> tasks{{alternating({0.0, 40.0}), 0.0},
                                {cpu_bound(30.0), 0.0}};
  const InterleaveResult real = execute_threads_gil(tasks, 5.0);
  GilSimulator sim(5.0);
  const double predicted = sim.run(tasks).makespan;  // ~40 ms
  EXPECT_NEAR(real.makespan, predicted, predicted * 0.5);
}

TEST(ExecEngineTest, ReadyTimesAreHonoured) {
  std::vector<ThreadTask> tasks{{cpu_bound(10.0), 0.0},
                                {cpu_bound(10.0), 30.0}};
  const InterleaveResult real = execute_threads_gil(tasks, 5.0);
  EXPECT_GE(real.tasks[1].start_ms, 29.0);
}

TEST(ExecEngineTest, ResultsCoverEveryTask) {
  std::vector<ThreadTask> tasks{{cpu_bound(5.0), 0.0},
                                {alternating({2.0, 10.0, 1.0}), 0.0},
                                {cpu_bound(3.0), 5.0}};
  const InterleaveResult real = execute_threads_gil(tasks, 5.0);
  ASSERT_EQ(real.tasks.size(), 3u);
  for (const TaskResult& r : real.tasks) {
    EXPECT_GT(r.finish_ms, 0.0);
    EXPECT_GE(r.finish_ms, r.start_ms);
    EXPECT_FALSE(r.spans.empty());
  }
}

TEST(ExecEngineTest, ParallelEngineRunsAllTasks) {
  std::vector<ThreadTask> tasks{{alternating({0.0, 30.0}), 0.0},
                                {alternating({0.0, 30.0}), 0.0},
                                {alternating({0.0, 30.0}), 0.0}};
  const InterleaveResult real = execute_threads_parallel(tasks);
  // Pure sleeps need no CPU: even one core overlaps them.
  EXPECT_LT(real.makespan, 60.0);
}

TEST(ExecEngineTest, Fig5ShapeThreadModeStartsFunctionsFaster) {
  // The Fig. 5 contrast at miniature scale: staggered thread spawns
  // (0.3 ms) start all functions within a few ms, while the simulated
  // process alternative would pay 7.5 ms startup per function. Here we
  // check the live engine's spawn side.
  std::vector<FunctionBehavior> behaviors(5, cpu_bound(2.0));
  const auto tasks = staggered_tasks(behaviors, 0.3);
  const InterleaveResult real = execute_threads_gil(tasks, 5.0);
  for (const TaskResult& r : real.tasks) {
    // Generous bound: total CPU is 10 ms, so every thread must begin well
    // before the process-mode alternative's 5 x 7.5 ms of fork startup —
    // even with OS-scheduler noise on a busy single-core machine.
    EXPECT_LT(r.start_ms, 35.0);
  }
}

TEST(ExecEngineTest, RequestIdThreadsThroughToTheRecorder) {
  // A live execution launched on behalf of a request carries its id into
  // the flight recorder: one exec.begin / exec.end pair keyed by the id.
  obs::FlightRecorder& rec = obs::FlightRecorder::global();
  rec.clear();
  rec.set_enabled(true);
  const std::uint64_t id = obs::mint_request_ids(1);
  std::vector<ThreadTask> tasks{{cpu_bound(1.0), 0.0}, {cpu_bound(1.0), 0.0}};
  const InterleaveResult real = execute_threads_gil(tasks, 5.0, id);
  EXPECT_EQ(real.tasks.size(), 2u);
  const std::vector<obs::RecorderEvent> timeline = rec.timeline(id);
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_EQ(timeline.front().kind, obs::RecKind::kExecBegin);
  EXPECT_DOUBLE_EQ(timeline.front().value, 2.0);  // task count
  EXPECT_EQ(timeline.back().kind, obs::RecKind::kExecEnd);
  EXPECT_GT(timeline.back().value, 0.0);  // makespan
  rec.set_enabled(false);
  rec.clear();
}

}  // namespace
}  // namespace chiron

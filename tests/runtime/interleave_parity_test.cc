// Bit-identity parity between the fast event-driven interleaving kernels
// (run() and the makespan-only makespan()) and their scan-per-step
// slow_reference counterparts.
//
// These are NOT tolerance tests: the fast kernels are required to perform
// the same float operations in the same order as the references, so every
// makespan, per-task timestamp, CPU total, and span edge must compare
// equal with ==. Any reordering of arithmetic in either kernel shows up
// here immediately (see DESIGN.md "Prediction kernel complexity &
// scenario sweeps").
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "runtime/gil.h"
#include "runtime/params.h"
#include "runtime/resources.h"
#include "workflow/benchmarks.h"

namespace chiron {
namespace {

// Asserts r1 == r2 field-for-field, bitwise on every double.
void expect_bit_identical(const InterleaveResult& fast,
                          const InterleaveResult& slow) {
  ASSERT_EQ(fast.tasks.size(), slow.tasks.size());
  EXPECT_EQ(fast.makespan, slow.makespan);
  for (std::size_t i = 0; i < fast.tasks.size(); ++i) {
    SCOPED_TRACE("task " + std::to_string(i));
    const TaskResult& f = fast.tasks[i];
    const TaskResult& s = slow.tasks[i];
    EXPECT_EQ(f.ready_ms, s.ready_ms);
    EXPECT_EQ(f.start_ms, s.start_ms);
    EXPECT_EQ(f.finish_ms, s.finish_ms);
    EXPECT_EQ(f.cpu_ms, s.cpu_ms);
    ASSERT_EQ(f.spans.size(), s.spans.size());
    for (std::size_t k = 0; k < f.spans.size(); ++k) {
      SCOPED_TRACE("span " + std::to_string(k));
      EXPECT_EQ(f.spans[k].kind, s.spans[k].kind);
      EXPECT_EQ(f.spans[k].begin, s.spans[k].begin);
      EXPECT_EQ(f.spans[k].end, s.spans[k].end);
    }
  }
}

// Random behaviour traces stressing the kernels' edge cases: varying
// segment counts (including empty behaviours), zero-length and near-zero
// segments, I/O-heavy mixes where the runnable set keeps draining, and
// tied ready times that exercise the CFS tie-breaks.
std::vector<ThreadTask> random_tasks(Rng& rng, std::size_t n) {
  std::vector<ThreadTask> tasks;
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<Segment> segs;
    const std::size_t parts = rng.below(9);  // 0 segments allowed
    for (std::size_t p = 0; p < parts; ++p) {
      const Segment::Kind kind = rng.uniform() < 0.5 ? Segment::Kind::kCpu
                                                     : Segment::Kind::kBlock;
      TimeMs dur;
      const double shape = rng.uniform();
      if (shape < 0.15) {
        dur = 0.0;  // zero-length segment: must be skipped identically
      } else if (shape < 0.3) {
        dur = rng.uniform(0.0, 1e-8);  // around the kEps admission window
      } else if (shape < 0.6 && kind == Segment::Kind::kBlock) {
        dur = rng.uniform(5.0, 40.0);  // I/O-drop: long blocks drain the
                                       // runnable set to zero and back
      } else {
        dur = rng.uniform(0.0, 12.0);
      }
      segs.push_back({kind, dur});
    }
    // Half the tasks share exact ready times so the pick tie-breaks fire.
    const TimeMs ready =
        rng.uniform() < 0.5 ? static_cast<TimeMs>(rng.below(4)) * 2.5
                            : rng.uniform(0.0, 10.0);
    tasks.push_back({FunctionBehavior(std::move(segs)), ready});
  }
  return tasks;
}

std::vector<ThreadTask> random_tasks(Rng& rng) {
  return random_tasks(rng, 1 + rng.below(14));
}

// The makespan-only entries' view of `tasks`: borrowed, no overheads.
std::vector<TaskView> views_of(const std::vector<ThreadTask>& tasks) {
  std::vector<TaskView> views;
  for (const ThreadTask& t : tasks) {
    views.push_back({&t.behavior, 0.0, 0.0, t.ready_ms});
  }
  return views;
}

class GilParity : public ::testing::TestWithParam<int> {};

TEST_P(GilParity, FastKernelBitIdenticalToReference) {
  Rng rng(90001 + GetParam());
  const auto tasks = random_tasks(rng);
  const bool spans = GetParam() % 2 == 0;
  const TimeMs switch_cost = GetParam() % 3 == 0 ? 0.07 : 0.0;
  GilSimulator sim(5.0, spans, switch_cost);
  expect_bit_identical(sim.run(tasks), sim.run_slow_reference(tasks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GilParity, ::testing::Range(0, 40));

class CpuShareParity : public ::testing::TestWithParam<int> {};

TEST_P(CpuShareParity, FastKernelBitIdenticalToReference) {
  Rng rng(70001 + GetParam());
  const auto tasks = random_tasks(rng);
  const std::size_t cpus = 1 + rng.below(6);
  const bool spans = GetParam() % 2 == 0;
  CpuShareSimulator sim(cpus, spans);
  expect_bit_identical(sim.run(tasks), sim.run_slow_reference(tasks));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuShareParity, ::testing::Range(0, 40));

// makespan() on the parity configs above: the same tasks, seeds and
// switch costs, with one fresh workspace per call.
class GilMakespanParity : public ::testing::TestWithParam<int> {};

TEST_P(GilMakespanParity, MakespanEqualsRunAndReference) {
  Rng rng(90001 + GetParam());
  const auto tasks = random_tasks(rng);
  const TimeMs switch_cost = GetParam() % 3 == 0 ? 0.07 : 0.0;
  GilSimulator sim(5.0, GetParam() % 2 == 0, switch_cost);
  InterleaveWorkspace ws;
  const TimeMs makespan = sim.makespan(views_of(tasks), ws);
  EXPECT_EQ(makespan, sim.run(tasks).makespan);
  EXPECT_EQ(makespan, sim.run_slow_reference(tasks).makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GilMakespanParity, ::testing::Range(0, 40));

class CpuShareMakespanParity : public ::testing::TestWithParam<int> {};

TEST_P(CpuShareMakespanParity, MakespanEqualsRunAndReference) {
  Rng rng(70001 + GetParam());
  const auto tasks = random_tasks(rng);
  const std::size_t cpus = 1 + rng.below(6);
  CpuShareSimulator sim(cpus, GetParam() % 2 == 0);
  InterleaveWorkspace ws;
  const TimeMs makespan = sim.makespan(views_of(tasks), ws);
  EXPECT_EQ(makespan, sim.run(tasks).makespan);
  EXPECT_EQ(makespan, sim.run_slow_reference(tasks).makespan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuShareMakespanParity,
                         ::testing::Range(0, 40));

// Overhead-scaled views against the copies RuntimeParams::thread_behavior
// builds: native GIL contention, MPK and SFI exec overhead on top of it,
// with a non-zero GIL switch cost. The random traces' near-kEps segments
// check that the kernel skips a segment on its scaled duration.
class GilOverheadParity : public ::testing::TestWithParam<int> {};

TEST_P(GilOverheadParity, ViewsMatchThreadBehaviorCopies) {
  Rng rng(31001 + GetParam());
  const auto profiles = random_tasks(rng);
  const RuntimeParams& p = RuntimeParams::defaults();
  const std::size_t co_resident = profiles.size() + 1;
  const double contention =
      p.contention_overhead(Runtime::kPython3, co_resident);
  ASSERT_GT(contention, 0.0);
  for (IsolationMode mode :
       {IsolationMode::kNative, IsolationMode::kMpk, IsolationMode::kSfi}) {
    SCOPED_TRACE(to_string(mode));
    std::vector<ThreadTask> copies;
    std::vector<TaskView> views;
    for (const ThreadTask& t : profiles) {
      copies.push_back({p.thread_behavior(t.behavior, Runtime::kPython3, mode,
                                          co_resident),
                        t.ready_ms});
      views.push_back({&t.behavior, p.isolation_overhead(t.behavior, mode),
                       contention, t.ready_ms});
    }
    InterleaveWorkspace ws;
    const GilSimulator gil(5.0, false, 0.05);
    const TimeMs gil_makespan = gil.makespan(views, ws);
    EXPECT_EQ(gil_makespan, gil.run(copies).makespan);
    EXPECT_EQ(gil_makespan, gil.run_slow_reference(copies).makespan);
    const CpuShareSimulator share(1 + GetParam() % 4);
    const TimeMs share_makespan = share.makespan(views, ws);
    EXPECT_EQ(share_makespan, share.run(copies).makespan);
    EXPECT_EQ(share_makespan, share.run_slow_reference(copies).makespan);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GilOverheadParity, ::testing::Range(0, 20));

// A CPU segment under the kernels' kEps skip threshold that its overhead
// lifts over it: the scaled copy keeps the segment, so the view must too.
TEST(GilOverheadParity, SkipsSegmentsOnTheirScaledDuration) {
  const FunctionBehavior tiny(
      {{Segment::Kind::kCpu, 0.9e-9}, {Segment::Kind::kBlock, 1.0}});
  const std::vector<TaskView> views = {{&tiny, 0.5, 0.0, 0.0}};
  const std::vector<ThreadTask> copies = {{tiny.with_cpu_overhead(0.5), 0.0}};
  InterleaveWorkspace ws;
  const GilSimulator gil(5.0);
  EXPECT_EQ(gil.makespan(views, ws), gil.run_slow_reference(copies).makespan);
  const CpuShareSimulator share(1);
  EXPECT_EQ(share.makespan(views, ws),
            share.run_slow_reference(copies).makespan);
}

// One workspace serves both kernels across calls whose task count shrinks
// and grows again, so stale heap entries, generations, run-queue
// positions or task states would show as a wrong makespan.
TEST(GilMakespanParity, ReusedWorkspaceMatchesFreshRuns) {
  Rng rng(4242);
  const GilSimulator gil(5.0, false, 0.07);
  const CpuShareSimulator share(3);
  InterleaveWorkspace ws;
  for (const std::size_t n : {14u, 3u, 1u, 0u, 9u, 25u, 2u, 40u, 5u}) {
    SCOPED_TRACE("tasks " + std::to_string(n));
    const auto tasks = random_tasks(rng, n);
    const auto views = views_of(tasks);
    EXPECT_EQ(gil.makespan(views, ws), gil.run_slow_reference(tasks).makespan);
    EXPECT_EQ(share.makespan(views, ws),
              share.run_slow_reference(tasks).makespan);
    EXPECT_EQ(gil.makespan(views, ws), gil.run(tasks).makespan);
  }
}

// The canonical benchmark workloads (what BM_GilSimulationThreads and the
// Predictor actually feed the kernels) must agree too, at sizes well past
// the random traces.
TEST(InterleaveParity, BenchmarkShapedWorkloadsAgree) {
  for (const std::size_t n : {8u, 64u, 256u}) {
    std::vector<FunctionBehavior> behaviors;
    for (std::size_t i = 0; i < n; ++i) {
      behaviors.push_back(i % 2 == 0 ? cpu_bound(3.0)
                                     : disk_io_bound(2.0, 6.0, 2));
    }
    const auto tasks = staggered_tasks(behaviors, 0.3);
    GilSimulator gil(5.0);
    expect_bit_identical(gil.run(tasks), gil.run_slow_reference(tasks));
    CpuShareSimulator share(4);
    expect_bit_identical(share.run(tasks), share.run_slow_reference(tasks));
  }
}

// Degenerate inputs every caller can produce.
TEST(InterleaveParity, DegenerateInputsAgree) {
  std::vector<std::vector<ThreadTask>> cases;
  cases.push_back({});  // no tasks at all
  cases.push_back({{FunctionBehavior(std::vector<Segment>{}), 0.0}});
  cases.push_back(
      {{FunctionBehavior({{Segment::Kind::kCpu, 0.0}}), 5.0}});
  cases.push_back({{FunctionBehavior({{Segment::Kind::kBlock, 10.0}}), 0.0},
                   {FunctionBehavior({{Segment::Kind::kBlock, 10.0}}), 0.0}});
  for (const auto& tasks : cases) {
    GilSimulator gil(5.0, /*record_spans=*/true);
    expect_bit_identical(gil.run(tasks), gil.run_slow_reference(tasks));
    CpuShareSimulator share(2, /*record_spans=*/true);
    expect_bit_identical(share.run(tasks), share.run_slow_reference(tasks));
  }
}

}  // namespace
}  // namespace chiron

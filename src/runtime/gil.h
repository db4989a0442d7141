// Execution interleaving engines.
//
// GilSimulator reproduces CPython's GIL switching (paper Fig. 2): at most
// one thread executes bytecode at a time; the holder is preempted after the
// switch interval when other threads are runnable; blocking operations drop
// the GIL and proceed concurrently; the next holder is the runnable thread
// with the least accumulated CPU time (CFS, §3.3 Algorithm 1 line 17).
//
// CpuShareSimulator (runtime/resources.h) models true parallelism on a
// bounded number of CPUs with fluid processor sharing — the behaviour of
// Java threads and of a process pool pinned to k cores (paper §4, Fig. 7).
//
// Both engines consume the same inputs (ThreadTasks or TaskViews) and
// produce the same result shape, so every deployment backend and the
// Predictor share them.
//
// Each engine has two entries over one event-driven O(E log N) kernel
// (next-event calendar + indexed run queue):
//   * run() takes ThreadTasks by value and returns per-task results and,
//     when asked, timeline spans — for the figures, timelines and the
//     CPU-capped second-level simulation;
//   * makespan() takes TaskViews that borrow their behaviours, scales CPU
//     segments on entry the way RuntimeParams::thread_behavior scales a
//     copy, reuses a caller-owned InterleaveWorkspace, records nothing and
//     returns only the makespan — the Predictor's KL evaluations and the
//     serving path of a live plan.
// run_slow_reference() is the original scan-per-step O(E*N) loop, kept as
// the one semantic oracle for both: parity tests assert run() and
// makespan() match it bit for bit (see DESIGN.md "Prediction kernel
// complexity & scenario sweeps").
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "workflow/behavior.h"

namespace chiron {

/// One schedulable unit: a behaviour trace plus the time it becomes ready.
struct ThreadTask {
  FunctionBehavior behavior;
  TimeMs ready_ms = 0.0;
};

/// A task of the makespan-only entries. It borrows its behaviour (which
/// must outlive the call) and executes every CPU segment of duration d for
/// d * (1 + exec_overhead) * (1 + contention_overhead), multiplied in that
/// order as two steps: exactly what run() computes on the copy that
/// RuntimeParams::thread_behavior builds with these two overheads.
struct TaskView {
  const FunctionBehavior* behavior = nullptr;
  double exec_overhead = 0.0;        ///< MPK/SFI execution overhead
  double contention_overhead = 0.0;  ///< thread_contention(k) - 1
  TimeMs ready_ms = 0.0;
};

namespace interleave_detail {
struct Workspace;
}

/// Scratch storage of the makespan-only entries: task states, event and
/// pick heaps, and the run-queue index. Reusing one across calls lets a
/// warm workspace simulate without allocating. Not thread-safe: give each
/// thread its own.
class InterleaveWorkspace {
 public:
  InterleaveWorkspace();
  ~InterleaveWorkspace();
  InterleaveWorkspace(const InterleaveWorkspace&) = delete;
  InterleaveWorkspace& operator=(const InterleaveWorkspace&) = delete;

 private:
  friend class GilSimulator;
  friend class CpuShareSimulator;
  std::unique_ptr<interleave_detail::Workspace> impl_;
};

/// A contiguous span of one thread's timeline (Fig. 5-style output).
struct TimelineSpan {
  enum class Kind : std::uint8_t { kWait, kCpu, kBlock };
  Kind kind = Kind::kCpu;
  TimeMs begin = 0.0;
  TimeMs end = 0.0;
};

/// Per-task outcome.
struct TaskResult {
  TimeMs ready_ms = 0.0;
  TimeMs start_ms = 0.0;   ///< first instant the task made progress
  TimeMs finish_ms = 0.0;  ///< completion time
  TimeMs cpu_ms = 0.0;     ///< CPU time actually consumed
  std::vector<TimelineSpan> spans;  ///< populated iff span recording is on

  TimeMs latency() const { return finish_ms - ready_ms; }
};

/// Result of simulating a task set to completion.
struct InterleaveResult {
  std::vector<TaskResult> tasks;
  TimeMs makespan = 0.0;  ///< max finish time (absolute)
};

/// GIL pseudo-parallel interleaving (one bytecode stream at a time).
class GilSimulator {
 public:
  /// `switch_interval_ms` is the preemption timeout (CPython default 5 ms).
  /// `switch_cost_ms` is wall-clock lost on every GIL handoff to a
  /// different thread (condition-variable wakeup, cache refill); the
  /// white-box Predictor models it as zero, the ground-truth simulator
  /// charges it — one source of honest prediction error (Fig. 12).
  explicit GilSimulator(TimeMs switch_interval_ms, bool record_spans = false,
                        TimeMs switch_cost_ms = 0.0);

  /// Simulates all tasks to completion. Deterministic. O(E log N) in the
  /// number of scheduling events E (segment entries, preemptions,
  /// arrivals) via a next-event calendar and a CFS pick heap.
  InterleaveResult run(const std::vector<ThreadTask>& tasks) const;

  /// run()'s makespan, bit for bit, on borrowed and overhead-scaled
  /// tasks: no spans, no per-task results, and no allocation once `ws`
  /// is warm.
  TimeMs makespan(std::span<const TaskView> tasks,
                  InterleaveWorkspace& ws) const;

  /// The original O(E*N) scan-per-step loop, kept as the semantic
  /// reference for parity tests. Bit-identical to run() and makespan().
  InterleaveResult run_slow_reference(
      const std::vector<ThreadTask>& tasks) const;

 private:
  TimeMs switch_interval_;
  bool record_spans_;
  TimeMs switch_cost_;
};

/// Builds staggered thread tasks: task i becomes ready at
/// `i * spawn_gap_ms` (the main thread starts children one per interval,
/// Algorithm 1 lines 4–5).
std::vector<ThreadTask> staggered_tasks(
    const std::vector<FunctionBehavior>& behaviors, TimeMs spawn_gap_ms);

}  // namespace chiron

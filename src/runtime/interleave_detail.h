// Internal state machinery shared by the interleaving kernels
// (GilSimulator in gil.cc, CpuShareSimulator in resources.cc). Both the
// fast event-driven kernels and their linear-scan slow_reference
// counterparts run exactly these helpers, so per-task transitions are
// identical by construction and parity only hinges on event ordering.
//
// Not installed / not part of the public surface: include only from
// runtime/*.cc.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/gil.h"

namespace chiron {
namespace interleave_detail {

constexpr TimeMs kEps = 1e-9;

enum class State : std::uint8_t { kNotReady, kRunnable, kBlocked, kDone };

struct TaskState {
  const FunctionBehavior* behavior = nullptr;
  std::size_t seg = 0;        // index of current segment
  TimeMs seg_remaining = 0.0; // remaining time in current segment
  State state = State::kNotReady;
  TimeMs ready = 0.0;
  TimeMs unblock = 0.0;
  TimeMs cpu = 0.0;
  TimeMs start = -1.0;
  TimeMs finish = 0.0;
  std::vector<TimelineSpan> spans;
  /// CPU-segment overheads (TaskView); zero for run()'s ThreadTasks. Kept
  /// last: they are read once per segment, the fields above per quantum.
  double exec_overhead = 0.0;
  double contention_overhead = 0.0;
};

inline void push_span(TaskState& t, bool record, TimelineSpan::Kind kind,
                      TimeMs b, TimeMs e) {
  if (!record || e - b <= kEps) return;
  if (!t.spans.empty() && t.spans.back().kind == kind &&
      std::abs(t.spans.back().end - b) <= kEps) {
    t.spans.back().end = e;
  } else {
    t.spans.push_back({kind, b, e});
  }
}

// The duration `t` executes segment `s` for: a CPU segment is scaled the
// way RuntimeParams::thread_behavior scales a copy (the isolation
// overhead, then the contention overhead, one multiply each), a block
// segment is not. A zero overhead multiplies by exactly 1.0.
inline TimeMs segment_duration(const TaskState& t, const Segment& s) {
  TimeMs d = s.duration;
  if (s.kind == Segment::Kind::kCpu) {
    d *= (1.0 + t.exec_overhead);
    d *= (1.0 + t.contention_overhead);
  }
  return d;
}

// Moves `t` into its segment `seg` at time `now`: becomes blocked, runnable,
// or done. Returns true if the task finished.
inline bool enter_segment(TaskState& t, TimeMs now, bool record) {
  const auto& segs = t.behavior->segments();
  TimeMs d = 0.0;
  while (t.seg < segs.size() &&
         (d = segment_duration(t, segs[t.seg])) <= kEps) {
    ++t.seg;
  }
  if (t.seg >= segs.size()) {
    t.state = State::kDone;
    t.finish = now;
    return true;
  }
  t.seg_remaining = d;
  if (segs[t.seg].kind == Segment::Kind::kBlock) {
    t.state = State::kBlocked;
    t.unblock = now + d;
    if (t.start < 0.0) t.start = now;
    push_span(t, record, TimelineSpan::Kind::kBlock, now, t.unblock);
  } else {
    t.state = State::kRunnable;
  }
  return false;
}

inline InterleaveResult collect(std::vector<TaskState>& states) {
  InterleaveResult result;
  result.tasks.reserve(states.size());
  for (TaskState& t : states) {
    TaskResult r;
    r.ready_ms = t.ready;
    r.start_ms = t.start < 0.0 ? t.finish : t.start;
    r.finish_ms = t.finish;
    r.cpu_ms = t.cpu;
    r.spans = std::move(t.spans);
    result.makespan = std::max(result.makespan, r.finish_ms);
    result.tasks.push_back(std::move(r));
  }
  return result;
}

// collect()'s makespan without building the per-task results.
inline TimeMs makespan_of(const std::vector<TaskState>& states) {
  TimeMs makespan = 0.0;
  for (const TaskState& t : states) makespan = std::max(makespan, t.finish);
  return makespan;
}

// Resets `states` to one fresh entry per task, keeping its storage.
inline void load(std::vector<TaskState>& states,
                 const std::vector<ThreadTask>& tasks) {
  states.clear();
  states.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    states[i].behavior = &tasks[i].behavior;
    states[i].ready = tasks[i].ready_ms;
  }
}

inline void load(std::vector<TaskState>& states,
                 std::span<const TaskView> tasks) {
  states.clear();
  states.resize(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    states[i].behavior = tasks[i].behavior;
    states[i].exec_overhead = tasks[i].exec_overhead;
    states[i].contention_overhead = tasks[i].contention_overhead;
    states[i].ready = tasks[i].ready_ms;
  }
}

// A min-heap on a reusable vector. push/pop make the same push_heap /
// pop_heap calls as std::priority_queue<T, std::vector<T>, Later>, so
// entries come out in the same order.
template <class T, class Later>
class Heap {
 public:
  bool empty() const { return v_.empty(); }
  const T& top() const { return v_.front(); }
  void push(const T& x) {
    v_.push_back(x);
    std::push_heap(v_.begin(), v_.end(), Later{});
  }
  void pop() {
    std::pop_heap(v_.begin(), v_.end(), Later{});
    v_.pop_back();
  }
  void clear() { v_.clear(); }

 private:
  std::vector<T> v_;
};

// A task keyed by a time (or, in the CPU-share kernel, a work
// coordinate); earliest first, ties by id.
struct Entry {
  TimeMs at;
  std::size_t id;
};
struct EntryLater {
  bool operator()(const Entry& a, const Entry& b) const {
    if (a.at != b.at) return a.at > b.at;
    return a.id > b.id;
  }
};

// A GIL pick candidate: least (cpu, ready, id) first; `gen` marks it stale.
struct Cand {
  TimeMs cpu;
  TimeMs ready;
  std::size_t id;
  std::uint64_t gen;
};
struct CandLater {
  bool operator()(const Cand& a, const Cand& b) const {
    if (a.cpu != b.cpu) return a.cpu > b.cpu;
    if (a.ready != b.ready) return a.ready > b.ready;
    return a.id > b.id;
  }
};

// Everything one fast-kernel call allocates. run() builds a fresh one per
// call; makespan() reuses its caller's, so a warm workspace simulates
// without allocating.
struct Workspace {
  std::vector<TaskState> states;
  Heap<Entry, EntryLater> events;  // arrivals and unblocks
  Heap<Cand, CandLater> cands;     // GIL: CFS pick
  Heap<Entry, EntryLater> fins;    // CPU share: completions (work coords)
  std::vector<std::uint64_t> gen;  // GIL: pick-entry generation per task
  std::vector<std::size_t> pos;    // GIL: position in `runnable`
  std::vector<std::size_t> runnable;
  std::vector<TimeMs> run_begin;   // CPU share: current run's start
};

}  // namespace interleave_detail
}  // namespace chiron

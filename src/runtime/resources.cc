#include "runtime/resources.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "runtime/interleave_detail.h"

namespace chiron {

ResourceUsage& ResourceUsage::operator+=(const ResourceUsage& other) {
  memory_mb += other.memory_mb;
  cpus += other.cpus;
  sandboxes += other.sandboxes;
  processes += other.processes;
  threads += other.threads;
  return *this;
}

MemMb sandbox_memory_mb(const RuntimeParams& params, std::size_t processes,
                        std::size_t threads, std::size_t pool_workers,
                        MemMb function_mb) {
  MemMb mem = params.sandbox_base_mb + params.runtime_mb + function_mb;
  if (processes > 1) {
    mem += static_cast<MemMb>(processes - 1) * params.per_process_mb;
  }
  mem += static_cast<MemMb>(threads) * params.per_thread_mb;
  mem += static_cast<MemMb>(pool_workers) * params.pool_worker_mb;
  return mem;
}

double cost_per_request_usd(const RuntimeParams& params,
                            const ResourceUsage& usage, TimeMs latency_ms,
                            std::size_t state_transitions) {
  if (latency_ms < 0.0) throw std::invalid_argument("negative latency");
  const double seconds = latency_ms / 1000.0;
  const double gb = usage.memory_mb / 1024.0;
  const double ghz = usage.cpus * params.cpu_freq_ghz;
  return gb * seconds * params.usd_per_gb_second +
         ghz * seconds * params.usd_per_ghz_second +
         static_cast<double>(state_transitions) *
             params.usd_per_state_transition;
}

double node_throughput_rps(const RuntimeParams& params,
                           const ResourceUsage& usage, TimeMs latency_ms) {
  if (latency_ms <= 0.0) return 0.0;
  if (usage.cpus <= 0.0 || usage.memory_mb <= 0.0) return 0.0;
  // Fluid packing: requests pipeline through the node, so capacity is the
  // binding resource divided by the per-request resource-time product.
  // (A deployment larger than one node spans nodes; per-node throughput
  // is the fractional share it gets.)
  const double by_cpu = static_cast<double>(params.node_cpus) / usage.cpus;
  const double by_mem = params.node_memory_mb / usage.memory_mb;
  const double instances = std::min(by_cpu, by_mem);
  return instances * (1000.0 / latency_ms);
}

namespace {

using interleave_detail::State;
using interleave_detail::TaskState;
using interleave_detail::collect;
using interleave_detail::enter_segment;
using interleave_detail::kEps;
using interleave_detail::load;
using interleave_detail::makespan_of;
using interleave_detail::push_span;

// A CPU segment is deemed finished once the shared work coordinate is
// within kDoneEps of its completion coordinate — absorbs the kEps floor
// on breakpoint steps.
constexpr TimeMs kDoneEps = 10 * kEps;

// Earliest pending arrival or unblock, or +inf (slow reference only; the
// fast kernel peeks its event calendar instead — same value).
TimeMs next_event(const std::vector<TaskState>& states) {
  TimeMs next = std::numeric_limits<TimeMs>::infinity();
  for (const TaskState& t : states) {
    if (t.state == State::kNotReady) next = std::min(next, t.ready);
    if (t.state == State::kBlocked) next = std::min(next, t.unblock);
  }
  return next;
}

bool all_done(const std::vector<TaskState>& states) {
  return std::all_of(states.begin(), states.end(), [](const TaskState& t) {
    return t.state == State::kDone;
  });
}

}  // namespace

CpuShareSimulator::CpuShareSimulator(std::size_t cpus, bool record_spans)
    : cpus_(cpus == 0 ? 1 : cpus), record_spans_(record_spans) {}

// Both kernels below advance a shared work coordinate W with the SAME
// float operations in the SAME order (W += rate * dt at each breakpoint;
// rate = min(1, cpus/R); dt = (wmin - W)/rate capped by the next
// arrival/unblock and floored at kEps). A task entering a CPU segment at
// coordinate W0 stores w_fin = W0 + duration and completes once
// w_fin <= W + kDoneEps; its cpu time is charged as the exact segment
// duration at completion and its span covers [run_begin, completion].
// The only difference is how wmin / the next event are FOUND (heaps vs
// linear scans) — the values are identical, so results are bit-identical.

namespace {

// The event-driven kernel over the tasks loaded into `ws.states`.
void simulate(interleave_detail::Workspace& ws, std::size_t cpus,
              bool record_spans) {
  std::vector<TaskState>& states = ws.states;
  const std::size_t n = states.size();

  // Next-event calendar: one pending entry per kNotReady (arrival) or
  // kBlocked (unblock) task; popped exactly when admitted, never stale.
  auto& events = ws.events;
  events.clear();

  // Completion calendar in work coordinates: one live entry per runnable
  // task keyed (w_fin, id). A task leaves the runnable set only by being
  // popped here, so entries are never stale either.
  auto& fins = ws.fins;
  fins.clear();

  std::vector<TimeMs>& run_begin = ws.run_begin;
  run_begin.assign(n, 0.0);
  std::size_t runnable = 0;
  std::size_t done = 0;
  TimeMs now = 0.0;
  TimeMs work = 0.0;  // shared work coordinate W

  // Registers the side structures for the state `id` landed in after
  // enter_segment at wall time `at`.
  auto settle = [&](std::size_t id, TimeMs at) {
    TaskState& t = states[id];
    switch (t.state) {
      case State::kRunnable:
        if (t.start < 0.0) t.start = at;
        run_begin[id] = at;
        ++runnable;
        fins.push({work + t.seg_remaining, id});
        break;
      case State::kBlocked: events.push({t.unblock, id}); break;
      case State::kDone: ++done; break;
      case State::kNotReady: break;
    }
  };

  for (std::size_t i = 0; i < n; ++i) events.push({states[i].ready, i});

  while (done < n) {
    // Admit arrivals and expired blocks up to `now`.
    while (!events.empty() && events.top().at <= now + kEps) {
      const std::size_t id = events.top().id;
      events.pop();
      TaskState& t = states[id];
      TimeMs at;
      if (t.state == State::kNotReady) {
        at = t.ready;
      } else {
        at = t.unblock;
        ++t.seg;
      }
      enter_segment(t, at, record_spans);
      settle(id, at);
    }

    if (runnable == 0) {
      if (events.empty()) break;  // defensive: nothing left to run
      now = std::max(now, events.top().at);
      continue;
    }

    // Fluid processor sharing: each runnable task progresses at `rate`.
    const double rate = std::min(
        1.0, static_cast<double>(cpus) / static_cast<double>(runnable));

    // Advance to the earliest of: a runnable segment completing at this
    // rate, an arrival, or an unblock.
    TimeMs dt = (fins.top().at - work) / rate;
    if (!events.empty() && events.top().at > now) {
      dt = std::min(dt, events.top().at - now);
    }
    dt = std::max(dt, kEps);
    now += dt;
    work += rate * dt;

    // Complete every segment the work coordinate has reached; chains of
    // tiny follow-on segments re-enter via the pushed entries.
    while (!fins.empty() && fins.top().at <= work + kDoneEps) {
      const std::size_t id = fins.top().id;
      fins.pop();
      --runnable;
      TaskState& t = states[id];
      t.cpu += t.seg_remaining;
      push_span(t, record_spans, TimelineSpan::Kind::kCpu, run_begin[id], now);
      ++t.seg;
      enter_segment(t, now, record_spans);
      settle(id, now);
    }
  }
}

}  // namespace

InterleaveResult CpuShareSimulator::run(
    const std::vector<ThreadTask>& tasks) const {
  interleave_detail::Workspace ws;
  load(ws.states, tasks);
  simulate(ws, cpus_, record_spans_);
  return collect(ws.states);
}

TimeMs CpuShareSimulator::makespan(std::span<const TaskView> tasks,
                                   InterleaveWorkspace& ws) const {
  interleave_detail::Workspace& w = *ws.impl_;
  load(w.states, tasks);
  simulate(w, cpus_, /*record_spans=*/false);
  return makespan_of(w.states);
}

InterleaveResult CpuShareSimulator::run_slow_reference(
    const std::vector<ThreadTask>& tasks) const {
  std::vector<TaskState> states;
  load(states, tasks);
  const std::size_t n = states.size();
  std::vector<TimeMs> w_fin(n, 0.0);
  std::vector<TimeMs> run_begin(n, 0.0);
  TimeMs now = 0.0;
  TimeMs work = 0.0;  // shared work coordinate W

  auto settle = [&](std::size_t id, TimeMs at) {
    TaskState& t = states[id];
    if (t.state == State::kRunnable) {
      if (t.start < 0.0) t.start = at;
      run_begin[id] = at;
      w_fin[id] = work + t.seg_remaining;
    }
  };

  while (!all_done(states)) {
    // Admit arrivals and expired blocks up to `now` (fixpoint so chains
    // of already-expired block segments are fully consumed).
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        TaskState& t = states[i];
        TimeMs at;
        if (t.state == State::kNotReady && t.ready <= now + kEps) {
          at = t.ready;
        } else if (t.state == State::kBlocked && t.unblock <= now + kEps) {
          at = t.unblock;
          ++t.seg;
        } else {
          continue;
        }
        enter_segment(t, at, record_spans_);
        settle(i, at);
        changed = true;
      }
    }

    // Gather the runnable set and its earliest completion coordinate.
    std::size_t runnable = 0;
    TimeMs wmin = std::numeric_limits<TimeMs>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (states[i].state == State::kRunnable) {
        ++runnable;
        wmin = std::min(wmin, w_fin[i]);
      }
    }
    if (runnable == 0) {
      const TimeMs next = next_event(states);
      if (!std::isfinite(next)) break;  // defensive: nothing left to run
      now = std::max(now, next);
      continue;
    }

    // Fluid processor sharing: each runnable task progresses at `rate`.
    const double rate = std::min(
        1.0, static_cast<double>(cpus_) / static_cast<double>(runnable));

    // Advance to the earliest of: a runnable segment completing at this
    // rate, an arrival, or an unblock.
    TimeMs dt = (wmin - work) / rate;
    const TimeMs next = next_event(states);
    if (std::isfinite(next) && next > now) dt = std::min(dt, next - now);
    dt = std::max(dt, kEps);
    now += dt;
    work += rate * dt;

    // Complete every segment the work coordinate has reached (fixpoint so
    // chains of tiny follow-on CPU segments complete in the same round,
    // matching the fast kernel's pop loop).
    changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        TaskState& t = states[i];
        if (t.state != State::kRunnable || w_fin[i] > work + kDoneEps) {
          continue;
        }
        t.cpu += t.seg_remaining;
        push_span(t, record_spans_, TimelineSpan::Kind::kCpu, run_begin[i],
                  now);
        ++t.seg;
        enter_segment(t, now, record_spans_);
        settle(i, now);
        changed = true;
      }
    }
  }
  return collect(states);
}

}  // namespace chiron

#include "runtime/gil.h"

#include <algorithm>
#include <limits>

#include "runtime/interleave_detail.h"

namespace chiron {
namespace {

using interleave_detail::State;
using interleave_detail::TaskState;
using interleave_detail::collect;
using interleave_detail::enter_segment;
using interleave_detail::kEps;
using interleave_detail::load;
using interleave_detail::makespan_of;
using interleave_detail::push_span;

// Admits arrivals and expired blocks up to time `now`. Runs to a fixpoint
// so that a chain of already-expired block segments is fully consumed and
// next_event() afterwards is strictly in the future.
void process_events(std::vector<TaskState>& states, TimeMs now, bool record) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (TaskState& t : states) {
      if (t.state == State::kNotReady && t.ready <= now + kEps) {
        enter_segment(t, t.ready, record);
        changed = true;
      } else if (t.state == State::kBlocked && t.unblock <= now + kEps) {
        const TimeMs at = t.unblock;
        ++t.seg;
        enter_segment(t, at, record);
        changed = true;
      }
    }
  }
}

// Earliest pending arrival or unblock, or +inf.
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

// The event-driven kernel over the tasks loaded into `ws.states`; leaves
// every task kDone with its finish time.
void simulate(interleave_detail::Workspace& ws, TimeMs switch_interval,
              TimeMs switch_cost, bool record_spans) {
  std::vector<TaskState>& states = ws.states;
  const std::size_t n = states.size();
  constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  // Next-event calendar: one pending entry per kNotReady (its arrival) or
  // kBlocked (its unblock) task; popped exactly when that transition is
  // admitted, so entries are never stale. Pop order within a timestamp is
  // by id, but admissions only touch per-task state, so order is
  // irrelevant to the result — this is what makes the heap bit-identical
  // to the reference fixpoint scan.
  auto& events = ws.events;
  events.clear();

  // CFS pick structure: min by exact (cpu, ready, id). The reference scan
  // compares cpu with a +-kEps tolerance; distinct cpu totals are either
  // exactly equal (identical accumulation histories) or separated by more
  // than kEps (every quantum is > kEps), so the exact lexicographic min
  // reproduces the reference fold — see DESIGN.md "Prediction kernel
  // complexity". Entries go stale lazily: `gen` is bumped whenever a
  // task's cpu changes or it leaves the runnable set.
  auto& cands = ws.cands;
  cands.clear();
  std::vector<std::uint64_t>& gen = ws.gen;
  gen.assign(n, 0);

  // O(1) runnable set (ids + positions): contended check and wait-span
  // enumeration.
  std::vector<std::size_t>& runnable = ws.runnable;
  runnable.clear();
  std::vector<std::size_t>& pos = ws.pos;
  pos.assign(n, kNoPos);
  std::size_t done = 0;

  auto add_runnable = [&](std::size_t id) {
    pos[id] = runnable.size();
    runnable.push_back(id);
    cands.push({states[id].cpu, states[id].ready, id, gen[id]});
  };
  auto remove_runnable = [&](std::size_t id) {
    const std::size_t p = pos[id];
    const std::size_t last = runnable.back();
    runnable[p] = last;
    pos[last] = p;
    runnable.pop_back();
    pos[id] = kNoPos;
    ++gen[id];  // pending pick entries for `id` are now stale
  };
  // Registers the side structures for the state `id` landed in after
  // enter_segment.
  auto settle = [&](std::size_t id) {
    TaskState& t = states[id];
    switch (t.state) {
      case State::kRunnable: add_runnable(id); break;
      case State::kBlocked: events.push({t.unblock, id}); break;
      case State::kDone: ++done; break;
      case State::kNotReady: break;
    }
  };

  for (std::size_t i = 0; i < n; ++i) events.push({states[i].ready, i});

  TimeMs now = 0.0;
  std::size_t last_holder = n;  // sentinel: no previous holder

  while (done < n) {
    // Admit arrivals and expired blocks up to `now`; chains of expired
    // blocks re-enter the loop via the pushed unblock entries, matching
    // the reference fixpoint.
    while (!events.empty() && events.top().at <= now + kEps) {
      const std::size_t id = events.top().id;
      events.pop();
      TaskState& t = states[id];
      if (t.state == State::kNotReady) {
        enter_segment(t, t.ready, record_spans);
      } else {
        const TimeMs at = t.unblock;
        ++t.seg;
        enter_segment(t, at, record_spans);
      }
      settle(id);
    }

    if (runnable.empty()) {
      if (events.empty()) break;  // defensive: nothing left to run
      now = std::max(now, events.top().at);
      continue;
    }

    // CFS pick: least accumulated CPU time; ties by earliest ready, then id.
    while (!cands.empty() && cands.top().gen != gen[cands.top().id]) {
      cands.pop();
    }
    const std::size_t holder = cands.top().id;

    // Handoff cost when the interpreter switches threads.
    if (switch_cost > 0.0 && holder != last_holder && last_holder != n) {
      now += switch_cost;
    }
    last_holder = holder;

    TaskState& h = states[holder];
    if (h.start < 0.0) h.start = now;
    const bool contended = runnable.size() > 1;
    TimeMs dt = h.seg_remaining;
    if (contended) dt = std::min(dt, switch_interval);
    dt = std::max(dt, kEps);

    push_span(h, record_spans, TimelineSpan::Kind::kCpu, now, now + dt);
    if (record_spans) {
      for (std::size_t idx : runnable) {
        if (idx != holder) {
          push_span(states[idx], true, TimelineSpan::Kind::kWait, now, now + dt);
        }
      }
    }

    now += dt;
    h.cpu += dt;
    h.seg_remaining -= dt;
    ++gen[holder];  // cpu changed: invalidate the peeked entry
    if (h.seg_remaining <= kEps) {
      ++h.seg;
      remove_runnable(holder);
      enter_segment(h, now, record_spans);
      settle(holder);
    } else {
      cands.push({h.cpu, h.ready, holder, gen[holder]});
    }
  }
}

}  // namespace

InterleaveWorkspace::InterleaveWorkspace()
    : impl_(std::make_unique<interleave_detail::Workspace>()) {}

InterleaveWorkspace::~InterleaveWorkspace() = default;

GilSimulator::GilSimulator(TimeMs switch_interval_ms, bool record_spans,
                           TimeMs switch_cost_ms)
    : switch_interval_(switch_interval_ms),
      record_spans_(record_spans),
      switch_cost_(switch_cost_ms) {}

InterleaveResult GilSimulator::run(const std::vector<ThreadTask>& tasks) const {
  interleave_detail::Workspace ws;
  load(ws.states, tasks);
  simulate(ws, switch_interval_, switch_cost_, record_spans_);
  return collect(ws.states);
}

TimeMs GilSimulator::makespan(std::span<const TaskView> tasks,
                              InterleaveWorkspace& ws) const {
  interleave_detail::Workspace& w = *ws.impl_;
  load(w.states, tasks);
  simulate(w, switch_interval_, switch_cost_, /*record_spans=*/false);
  return makespan_of(w.states);
}

InterleaveResult GilSimulator::run_slow_reference(
    const std::vector<ThreadTask>& tasks) const {
  std::vector<TaskState> states;
  load(states, tasks);
  TimeMs now = 0.0;
  std::size_t last_holder = states.size();  // sentinel: no previous holder

  while (!all_done(states)) {
    process_events(states, now, record_spans_);

    // Gather the runnable set.
    std::vector<std::size_t> runnable;
    for (std::size_t i = 0; i < states.size(); ++i) {
      if (states[i].state == State::kRunnable) runnable.push_back(i);
    }
    if (runnable.empty()) {
      const TimeMs next = next_event(states);
      if (!std::isfinite(next)) break;  // defensive: nothing left to run
      now = std::max(now, next);
      continue;
    }

    // CFS pick: least accumulated CPU time; ties by earliest ready, then id.
    std::size_t holder = runnable.front();
    for (std::size_t idx : runnable) {
      const TaskState& cand = states[idx];
      const TaskState& best = states[holder];
      if (cand.cpu < best.cpu - kEps ||
          (std::abs(cand.cpu - best.cpu) <= kEps && cand.ready < best.ready)) {
        holder = idx;
      }
    }

    // Handoff cost when the interpreter switches threads.
    if (switch_cost_ > 0.0 && holder != last_holder &&
        last_holder != states.size()) {
      now += switch_cost_;
    }
    last_holder = holder;

    TaskState& h = states[holder];
    if (h.start < 0.0) h.start = now;
    const bool contended = runnable.size() > 1;
    TimeMs dt = h.seg_remaining;
    if (contended) dt = std::min(dt, switch_interval_);
    dt = std::max(dt, kEps);

    push_span(h, record_spans_, TimelineSpan::Kind::kCpu, now, now + dt);
    if (record_spans_) {
      for (std::size_t idx : runnable) {
        if (idx != holder) {
          push_span(states[idx], true, TimelineSpan::Kind::kWait, now, now + dt);
        }
      }
    }

    now += dt;
    h.cpu += dt;
    h.seg_remaining -= dt;
    if (h.seg_remaining <= kEps) {
      ++h.seg;
      enter_segment(h, now, record_spans_);
    }
  }
  return collect(states);
}

std::vector<ThreadTask> staggered_tasks(
    const std::vector<FunctionBehavior>& behaviors, TimeMs spawn_gap_ms) {
  std::vector<ThreadTask> tasks;
  tasks.reserve(behaviors.size());
  for (std::size_t i = 0; i < behaviors.size(); ++i) {
    tasks.push_back({behaviors[i], static_cast<TimeMs>(i) * spawn_gap_ms});
  }
  return tasks;
}

}  // namespace chiron

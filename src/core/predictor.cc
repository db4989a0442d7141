#include "core/predictor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "runtime/resources.h"

namespace chiron {
namespace {

constexpr std::size_t kUncapped = 1u << 20;

// Scratch of the makespan-only kernel entries, one per thread: the caller
// and each fork_join helper of a speculative PGP wave simulate on their
// own, so a workspace is never shared.
struct Scratch {
  InterleaveWorkspace ws;
  std::vector<TaskView> views;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

}  // namespace

FunctionBehavior effective_behavior(const InterleaveResult& result) {
  // Union of all CPU spans across threads; the GIL engine guarantees they
  // are disjoint, the processor-sharing engine may overlap them (the
  // process is simply "using CPU" then).
  std::vector<TimelineSpan> cpu;
  for (const TaskResult& t : result.tasks) {
    for (const TimelineSpan& s : t.spans) {
      if (s.kind == TimelineSpan::Kind::kCpu) cpu.push_back(s);
    }
  }
  std::sort(cpu.begin(), cpu.end(), [](const auto& a, const auto& b) {
    return a.begin < b.begin;
  });
  std::vector<Segment> segments;
  TimeMs cursor = 0.0;
  TimeMs covered_until = 0.0;
  for (const TimelineSpan& s : cpu) {
    const TimeMs begin = std::max(s.begin, covered_until);
    const TimeMs end = std::max(s.end, covered_until);
    if (begin > cursor) {
      segments.push_back({Segment::Kind::kBlock, begin - cursor});
      cursor = begin;
    }
    if (end > cursor) {
      segments.push_back({Segment::Kind::kCpu, end - cursor});
      cursor = end;
    }
    covered_until = std::max(covered_until, end);
  }
  if (result.makespan > cursor) {
    segments.push_back({Segment::Kind::kBlock, result.makespan - cursor});
  }
  return FunctionBehavior(std::move(segments));
}

Predictor::Predictor(PredictorConfig config,
                     std::vector<FunctionBehavior> profiles)
    : config_(std::move(config)), profiles_(std::move(profiles)) {
  if (config_.conservative_factor <= 0.0) {
    throw std::invalid_argument("conservative factor must be positive");
  }
}

TimeMs Predictor::exec_makespan(std::span<const TaskView> tasks,
                                IsolationMode mode, std::size_t cpus) const {
  InterleaveWorkspace& ws = scratch().ws;
  if (true_parallel(config_.runtime, mode)) {
    return CpuShareSimulator(cpus == 0 ? kUncapped : cpus).makespan(tasks, ws);
  }
  return GilSimulator(config_.params.gil_switch_interval_ms)
      .makespan(tasks, ws);
}

TimeMs Predictor::thread_exec(const std::vector<FunctionBehavior>& behaviors,
                              IsolationMode mode) const {
  const TimeMs gap = config_.params.spawn_gap_ms(config_.runtime, mode);
  std::vector<TaskView>& views = scratch().views;
  views.clear();
  for (std::size_t i = 0; i < behaviors.size(); ++i) {
    views.push_back({&behaviors[i], 0.0, 0.0, static_cast<TimeMs>(i) * gap});
  }
  return exec_makespan(views, mode, 0);
}

TimeMs Predictor::group_makespan(const ProcessGroup& g,
                                 IsolationMode mode) const {
  const RuntimeParams& p = config_.params;
  // Functions sharing a process run as threads (isolation overhead and
  // GIL contention apply); a lone forked function is a plain process.
  const bool thread_context = g.mode == ExecMode::kThread || g.size() > 1;
  const double contention =
      thread_context ? p.contention_overhead(config_.runtime, g.size()) : 0.0;
  const TimeMs gap = p.spawn_gap_ms(config_.runtime, mode);
  std::vector<TaskView>& views = scratch().views;
  views.clear();
  for (std::size_t i = 0; i < g.functions.size(); ++i) {
    const FunctionBehavior& b = profiles_.at(g.functions[i]);
    views.push_back({&b, thread_context ? p.isolation_overhead(b, mode) : 0.0,
                     contention, static_cast<TimeMs>(i) * gap});
  }
  return exec_makespan(views, mode, 0);
}

std::shared_ptr<const InterleaveResult> Predictor::group_exec(
    const ProcessGroup& g, IsolationMode mode) const {
  GroupCacheKey key{g.functions, g.mode, mode, /*cpus=*/0,
                    /*record_spans=*/true};
  if (config_.enable_cache) {
    if (auto hit = cache_.lookup(key)) return hit;
  }
  // group_makespan's tasks, as the thread-overhead copies run() takes.
  const bool thread_context = g.mode == ExecMode::kThread || g.size() > 1;
  std::vector<FunctionBehavior> behaviors;
  behaviors.reserve(g.size());
  for (FunctionId f : g.functions) {
    behaviors.push_back(thread_context
                            ? config_.params.thread_behavior(
                                  profiles_.at(f), config_.runtime, mode,
                                  g.size())
                            : profiles_.at(f));
  }
  const auto tasks = staggered_tasks(
      behaviors, config_.params.spawn_gap_ms(config_.runtime, mode));
  InterleaveResult result =
      true_parallel(config_.runtime, mode)
          ? CpuShareSimulator(kUncapped, /*record_spans=*/true).run(tasks)
          : GilSimulator(config_.params.gil_switch_interval_ms,
                         /*record_spans=*/true)
                .run(tasks);
  if (config_.enable_cache) return cache_.insert(key, std::move(result));
  return std::make_shared<const InterleaveResult>(std::move(result));
}

void Predictor::publish_cache_metrics() const {
  const PredictionCache::Stats s = cache_.stats();
  const std::uint64_t prev_hits = published_hits_.exchange(s.hits);
  const std::uint64_t prev_misses = published_misses_.exchange(s.misses);
  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  if (s.hits > prev_hits) {
    m.counter("chiron.predictor.cache.hit")
        .inc(static_cast<std::int64_t>(s.hits - prev_hits));
  }
  if (s.misses > prev_misses) {
    m.counter("chiron.predictor.cache.miss")
        .inc(static_cast<std::int64_t>(s.misses - prev_misses));
  }
}

TimeMs Predictor::process_latency(const ProcessGroup& g,
                                  std::size_t fork_index,
                                  IsolationMode mode) const {
  const RuntimeParams& p = config_.params;
  const TimeMs exec =
      group_makespan(g, mode) + p.interaction_ms(mode, g.size());
  if (g.mode == ExecMode::kThread) {
    return exec;  // resident orchestrator process: no fork cost
  }
  return static_cast<TimeMs>(fork_index) * p.process_block_ms +
         p.process_startup_ms + exec;
}

TimeMs Predictor::wrap_latency(const Wrap& w, IsolationMode mode,
                               std::size_t cpu_cap) const {
  const RuntimeParams& p = config_.params;

  if (true_parallel(config_.runtime, mode)) {
    // Pool workers / Java threads: all functions dispatch with a small
    // stagger and run truly parallel on the allocated cores.
    const TimeMs gap = p.spawn_gap_ms(config_.runtime, mode);
    std::vector<TaskView>& views = scratch().views;
    views.clear();
    for (const ProcessGroup& g : w.processes) {
      for (FunctionId f : g.functions) {
        views.push_back({&profiles_.at(f), 0.0, 0.0,
                         static_cast<TimeMs>(views.size()) * gap});
      }
    }
    const std::size_t count = views.size();
    const TimeMs exec = exec_makespan(views, mode, cpu_cap);
    // Pool workers exchange data over pipes; Java threads share memory.
    const TimeMs ipc =
        config_.runtime == Runtime::kJava
            ? 0.0
            : p.ipc_pipe_ms * static_cast<TimeMs>(count == 0 ? 0 : count - 1);
    return exec + ipc;
  }

  const std::size_t nproc = w.process_count();
  const TimeMs ipc =
      p.ipc_pipe_ms * static_cast<TimeMs>(nproc > 0 ? nproc - 1 : 0);

  if (cpu_cap == 0 || nproc <= cpu_cap) {
    TimeMs slowest = 0.0;
    std::size_t fork_index = 0;
    for (const ProcessGroup& g : w.processes) {
      slowest = std::max(slowest, process_latency(g, fork_index, mode));
      if (g.mode == ExecMode::kProcess) ++fork_index;
    }
    return slowest + ipc;
  }

  // CPU-capped: collapse each process into its effective CPU/block profile
  // and let the processes share `cpu_cap` cores.
  std::vector<ThreadTask> tasks;
  std::size_t fork_index = 0;
  for (const ProcessGroup& g : w.processes) {
    ThreadTask task;
    task.behavior = effective_behavior(*group_exec(g, mode));
    if (g.mode == ExecMode::kThread) {
      task.ready_ms = 0.0;
    } else {
      task.ready_ms = static_cast<TimeMs>(fork_index) * p.process_block_ms +
                      p.process_startup_ms;
      ++fork_index;
    }
    tasks.push_back(std::move(task));
  }
  CpuShareSimulator sim(cpu_cap);
  return sim.run(tasks).makespan + ipc;
}

TimeMs Predictor::wrap_offset(std::size_t k) const {
  const RuntimeParams& p = config_.params;
  if (k == 0) return 0.0;
  if (p.decentralized_scheduling) return p.rpc_ms;
  return static_cast<TimeMs>(k - 1) * p.inv_ms + p.rpc_ms;
}

TimeMs Predictor::stage_latency(const StagePlan& sp, IsolationMode mode,
                                std::size_t cpu_cap) const {
  TimeMs stage = 0.0;
  for (std::size_t k = 0; k < sp.wraps.size(); ++k) {
    stage = std::max(stage, wrap_offset(k) +
                                wrap_latency(sp.wraps[k], mode,
                                             sp.wrap_cpu_cap(cpu_cap, k)));
  }
  return stage;
}

TimeMs Predictor::workflow_latency(const WrapPlan& plan) const {
  TimeMs total = 0.0;
  for (const StagePlan& sp : plan.stages) {
    total += stage_latency(sp, plan.mode, plan.cpu_cap);
  }
  return total * config_.conservative_factor;
}

}  // namespace chiron

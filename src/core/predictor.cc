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

double cpu_fraction(const FunctionBehavior& b) {
  const TimeMs total = b.solo_latency();
  if (total <= 0.0) return 1.0;
  return b.total_cpu() / total;
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

FunctionBehavior Predictor::behavior_for(FunctionId f, IsolationMode mode,
                                         bool thread_context,
                                         std::size_t co_resident) const {
  const FunctionBehavior& base = profiles_.at(f);
  if (!thread_context) return base;
  FunctionBehavior b = base;
  if (mode == IsolationMode::kMpk) {
    b = b.with_cpu_overhead(
        config_.params.mpk.exec_overhead(cpu_fraction(base)));
  } else if (mode == IsolationMode::kSfi) {
    b = b.with_cpu_overhead(
        config_.params.sfi.exec_overhead(cpu_fraction(base)));
  }
  // GIL convoy / cache contention among co-resident threads (white-box
  // model input; the ground truth adds a further unmodeled residual).
  if (config_.runtime != Runtime::kJava && co_resident > 1) {
    b = b.with_cpu_overhead(config_.params.thread_contention(co_resident) -
                            1.0);
  }
  return b;
}

TimeMs Predictor::spawn_gap(IsolationMode mode) const {
  const RuntimeParams& p = config_.params;
  if (config_.runtime == Runtime::kJava) return p.java_thread_startup_ms;
  // Node.js worker_threads pay >50 ms of startup per worker (§2.1) —
  // pool dispatch is unaffected (workers are resident).
  if (config_.runtime == Runtime::kNodeJs && mode != IsolationMode::kPool) {
    return p.node_worker_startup_ms;
  }
  switch (mode) {
    case IsolationMode::kNative: return p.thread_startup_ms;
    case IsolationMode::kMpk: return p.thread_startup_ms + p.mpk.startup_ms;
    case IsolationMode::kSfi: return p.thread_startup_ms + p.sfi.startup_ms;
    case IsolationMode::kPool: return p.pool_dispatch_ms;
  }
  return p.thread_startup_ms;
}

InterleaveResult Predictor::run_exec(const std::vector<ThreadTask>& tasks,
                                     IsolationMode mode, std::size_t cpus,
                                     bool record_spans) const {
  const bool true_parallel =
      config_.runtime == Runtime::kJava || mode == IsolationMode::kPool;
  if (true_parallel) {
    CpuShareSimulator sim(cpus == 0 ? kUncapped : cpus, record_spans);
    return sim.run(tasks);
  }
  GilSimulator sim(config_.params.gil_switch_interval_ms, record_spans);
  return sim.run(tasks);
}

TimeMs Predictor::thread_exec(const std::vector<FunctionBehavior>& behaviors,
                              IsolationMode mode) const {
  if (behaviors.empty()) return 0.0;
  const auto tasks = staggered_tasks(behaviors, spawn_gap(mode));
  return run_exec(tasks, mode, 0, false).makespan;
}

std::shared_ptr<const InterleaveResult> Predictor::group_exec(
    const ProcessGroup& g, IsolationMode mode, bool record_spans) const {
  GroupCacheKey key{g.functions, g.mode, mode, /*cpus=*/0, record_spans};
  if (config_.enable_cache) {
    if (auto hit = cache_.lookup(key)) return hit;
  }
  // Functions sharing a process run as threads (isolation overhead
  // applies); a lone forked function is a plain process.
  const bool thread_context = g.mode == ExecMode::kThread || g.size() > 1;
  std::vector<FunctionBehavior> behaviors;
  behaviors.reserve(g.size());
  for (FunctionId f : g.functions) {
    behaviors.push_back(behavior_for(f, mode, thread_context, g.size()));
  }
  const auto tasks = staggered_tasks(behaviors, spawn_gap(mode));
  InterleaveResult result = run_exec(tasks, mode, 0, record_spans);
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
  TimeMs exec = group_exec(g, mode, false)->makespan;
  // SFI-style isolation charges per thread interaction (Table 1); MPK has
  // zero interaction cost.
  if ((mode == IsolationMode::kSfi || mode == IsolationMode::kMpk) &&
      g.size() > 1) {
    const IsolationParams& iso =
        mode == IsolationMode::kSfi ? p.sfi : p.mpk;
    exec += iso.interaction_ms * static_cast<TimeMs>(g.size() - 1);
  }
  if (g.mode == ExecMode::kThread) {
    return exec;  // resident orchestrator process: no fork cost
  }
  return static_cast<TimeMs>(fork_index) * p.process_block_ms +
         p.process_startup_ms + exec;
}

TimeMs Predictor::wrap_latency(const Wrap& w, IsolationMode mode,
                               std::size_t cpu_cap) const {
  const RuntimeParams& p = config_.params;
  const bool true_parallel =
      config_.runtime == Runtime::kJava || mode == IsolationMode::kPool;

  if (true_parallel) {
    // Pool workers / Java threads: all functions dispatch with a small
    // stagger and run truly parallel on the allocated cores.
    std::vector<FunctionBehavior> behaviors;
    for (const ProcessGroup& g : w.processes) {
      for (FunctionId f : g.functions) {
        behaviors.push_back(
            behavior_for(f, mode, /*thread_context=*/false, /*co_resident=*/1));
      }
    }
    const auto tasks = staggered_tasks(behaviors, spawn_gap(mode));
    const TimeMs exec = run_exec(tasks, mode, cpu_cap, false).makespan;
    // Pool workers exchange data over pipes; Java threads share memory.
    const TimeMs ipc = config_.runtime == Runtime::kJava
                           ? 0.0
                           : p.ipc_pipe_ms *
                                 static_cast<TimeMs>(
                                     behaviors.empty() ? 0 : behaviors.size() - 1);
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
    task.behavior = effective_behavior(*group_exec(g, mode, true));
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
    // The CPU cap constrains the whole deployment; attribute it per wrap
    // proportionally to its process share (exact when there is one wrap).
    std::size_t wrap_cap = cpu_cap;
    if (cpu_cap > 0 && sp.wraps.size() > 1) {
      const std::size_t total = sp.process_count();
      const std::size_t mine = sp.wraps[k].process_count();
      wrap_cap = std::max<std::size_t>(
          1, cpu_cap * mine / std::max<std::size_t>(1, total));
    }
    stage = std::max(stage, wrap_offset(k) +
                                wrap_latency(sp.wraps[k], mode, wrap_cap));
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

#include "platform/plan_backend.h"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "core/predictor.h"
#include "runtime/resources.h"

namespace chiron {
namespace {

constexpr std::size_t kUncapped = 1u << 20;

// Scratch of latency()'s makespan-only path, one per thread (each window
// worker and the coordinator serve on their own): a request's jittered
// behaviours, their task views and the kernel workspace. Reusing them
// keeps a warm serving thread from allocating per request.
struct Scratch {
  std::vector<FunctionBehavior> jittered;
  std::vector<TaskView> views;
  InterleaveWorkspace ws;
};

Scratch& scratch() {
  thread_local Scratch s;
  return s;
}

void shift_spans(std::vector<TimelineSpan>& spans, TimeMs by) {
  for (TimelineSpan& s : spans) {
    s.begin += by;
    s.end += by;
  }
}

}  // namespace

WrapPlanBackend::WrapPlanBackend(std::string name, RuntimeParams params,
                                 Workflow wf, WrapPlan plan, NoiseConfig noise)
    : name_(std::move(name)),
      params_(params),
      wf_(std::move(wf)),
      plan_(std::move(plan)),
      noise_(noise),
      runtime_(wf_.function_count() > 0 ? wf_.function(0).runtime
                                        : Runtime::kPython3) {
  plan_.validate(wf_);
  // Pool workers and Java threads run each function in its own context;
  // a function pays the thread overheads when its process hosts threads.
  const bool parallel = true_parallel(runtime_, plan_.mode);
  for (const StagePlan& sp : plan_.stages) {
    for (const Wrap& w : sp.wraps) {
      for (const ProcessGroup& g : w.processes) {
        const bool thread_context =
            !parallel && (g.mode == ExecMode::kThread || g.size() > 1);
        for (FunctionId f : g.functions) {
          FunctionBehavior b = wf_.function(f).behavior;
          if (thread_context) {
            b = params_.thread_behavior(std::move(b), runtime_, plan_.mode,
                                        g.size());
            // Contention residual the Predictor does not see.
            if (has_gil(runtime_) && g.size() > 1 &&
                noise_.thread_contention > 0.0) {
              b = b.with_cpu_overhead(noise_.thread_contention *
                                      static_cast<double>(g.size() - 1));
            }
          }
          behaviors_.push_back(std::move(b));
        }
      }
    }
  }
}

WrapPlanBackend::WrapOutcome WrapPlanBackend::simulate_wrap(
    const Wrap& w, std::size_t cap, const FunctionBehavior* behavior,
    bool timelines, Rng& rng) const {
  WrapOutcome outcome;

  // The next function's behaviour with one jitter draw per segment.
  const auto jitter_next = [&](FunctionBehavior& b) {
    b = *behavior++;
    b.transform_durations([&](TimeMs d) { return noise_.jit(d, rng); });
  };
  // The next `count` functions as staggered tasks: each one's segment
  // jitter, then its spawn-gap jitter. next_tasks copies them into
  // ThreadTasks for run(); next_views draws the same numbers into this
  // thread's scratch for the makespan-only entry.
  const TimeMs gap = params_.spawn_gap_ms(runtime_, plan_.mode);
  const auto next_tasks = [&](std::size_t count) {
    std::vector<ThreadTask> tasks(count);
    for (std::size_t i = 0; i < count; ++i) {
      jitter_next(tasks[i].behavior);
      tasks[i].ready_ms = static_cast<TimeMs>(i) * noise_.jit(gap, rng);
    }
    return tasks;
  };
  const auto next_views = [&](std::size_t count) {
    Scratch& s = scratch();
    if (s.jittered.size() < count) s.jittered.resize(count);
    s.views.clear();
    for (std::size_t i = 0; i < count; ++i) {
      jitter_next(s.jittered[i]);
      s.views.push_back({&s.jittered[i], 0.0, 0.0,
                         static_cast<TimeMs>(i) * noise_.jit(gap, rng)});
    }
    return std::span<const TaskView>(s.views);
  };

  if (true_parallel(runtime_, plan_.mode)) {
    // Pool workers / Java threads: one flat true-parallel dispatch.
    const std::size_t count = w.function_count();
    CpuShareSimulator sim(cap == 0 ? kUncapped : cap, timelines);
    InterleaveResult result;
    TimeMs exec;
    if (timelines) {
      result = sim.run(next_tasks(count));
      exec = result.makespan;
    } else {
      exec = sim.makespan(next_views(count), scratch().ws);
    }
    TimeMs ipc = 0.0;
    if (runtime_ != Runtime::kJava && count > 1) {
      ipc = static_cast<TimeMs>(count - 1) *
            noise_.jit(params_.ipc_pipe_ms, rng);
    }
    outcome.latency = exec + ipc;
    if (!timelines) return outcome;
    std::size_t i = 0;
    for (const ProcessGroup& g : w.processes) {
      for (FunctionId f : g.functions) {
        TaskResult& task = result.tasks[i++];
        FunctionTimeline tl;
        tl.id = f;
        tl.invoke_ms = task.ready_ms;
        tl.start_exec_ms = task.start_ms;
        tl.finish_ms = task.finish_ms;
        tl.spans = std::move(task.spans);
        outcome.functions.push_back(std::move(tl));
      }
    }
    return outcome;
  }

  // Process/thread execution: one GIL interpreter per process group.
  const std::size_t nproc = w.process_count();
  // CPU cap below the process count: processes time-share the allocated
  // cores, and the second-level simulation below reads their spans.
  const bool time_shared = cap > 0 && nproc > cap;
  const bool spans = timelines || time_shared;
  struct GroupRun {
    TimeMs base = 0.0;
    TimeMs exec = 0.0;
    InterleaveResult result;
    const ProcessGroup* group = nullptr;
  };
  std::vector<GroupRun> runs;  // kept only when spans are read
  TimeMs uncapped = 0.0;
  std::size_t fork_index = 0;
  const GilSimulator sim(params_.gil_switch_interval_ms, spans,
                         noise_.gil_handoff_ms);
  for (const ProcessGroup& g : w.processes) {
    GroupRun run;
    run.group = &g;
    if (spans) {
      run.result = sim.run(next_tasks(g.size()));
      run.exec = run.result.makespan;
    } else {
      run.exec = sim.makespan(next_views(g.size()), scratch().ws);
    }
    run.exec += params_.interaction_ms(plan_.mode, g.size());
    if (g.mode == ExecMode::kThread) {
      run.base = 0.0;  // resident orchestrator
    } else {
      // Superlinear queue-pressure skew the Predictor does not model.
      run.base = static_cast<TimeMs>(fork_index) *
                     noise_.jit(params_.process_block_ms *
                                    noise_.skew(fork_index),
                                rng) +
                 noise_.jit(params_.process_startup_ms, rng);
      ++fork_index;
    }
    uncapped = std::max(uncapped, run.base + run.exec);
    if (spans) runs.push_back(std::move(run));
  }

  const TimeMs ipc = nproc > 1 ? static_cast<TimeMs>(nproc - 1) *
                                     noise_.jit(params_.ipc_pipe_ms, rng)
                               : 0.0;
  uncapped += ipc;

  // Wrap latency under the cap comes from a second-level simulation over
  // each process's effective CPU/block profile; per-function timelines
  // are dilated by the resulting slowdown (documented approximation).
  double dilation = 1.0;
  TimeMs capped = uncapped;
  if (time_shared) {
    std::vector<ThreadTask> ptasks;
    for (const GroupRun& r : runs) {
      ThreadTask task;
      task.behavior = effective_behavior(r.result);
      task.ready_ms = r.base;
      ptasks.push_back(std::move(task));
    }
    CpuShareSimulator sim(cap);
    capped = sim.run(ptasks).makespan + ipc;
    if (uncapped > 0.0) dilation = capped / uncapped;
  }
  outcome.latency = capped;
  if (!timelines) return outcome;

  for (GroupRun& r : runs) {
    for (std::size_t i = 0; i < r.group->functions.size(); ++i) {
      FunctionTimeline tl;
      tl.id = r.group->functions[i];
      TaskResult& task = r.result.tasks[i];
      tl.invoke_ms = (r.base + task.ready_ms) * dilation;
      tl.start_exec_ms = (r.base + task.start_ms) * dilation;
      tl.finish_ms = (r.base + task.finish_ms) * dilation;
      tl.spans = std::move(task.spans);
      shift_spans(tl.spans, r.base);
      if (dilation != 1.0) {
        for (TimelineSpan& s : tl.spans) {
          s.begin *= dilation;
          s.end *= dilation;
        }
      }
      outcome.functions.push_back(std::move(tl));
    }
  }
  return outcome;
}

RunResult WrapPlanBackend::run(Rng& rng) const {
  return simulate(rng, /*timelines=*/true);
}

TimeMs WrapPlanBackend::latency(Rng& rng) const {
  return simulate(rng, /*timelines=*/false).e2e_latency_ms;
}

RunResult WrapPlanBackend::simulate(Rng& rng, bool timelines) const {
  RunResult result;
  // Whole-run load factor: one correlated multiplier per request.
  const double run_scale = noise_.run_scale(rng);
  const FunctionBehavior* behavior = behaviors_.data();
  TimeMs t = 0.0;
  for (const StagePlan& sp : plan_.stages) {
    TimeMs stage_latency = 0.0;
    for (std::size_t k = 0; k < sp.wraps.size(); ++k) {
      TimeMs offset = 0.0;
      if (k > 0) {
        offset = params_.decentralized_scheduling
                     ? noise_.jit(params_.rpc_ms, rng)
                     : static_cast<TimeMs>(k - 1) *
                               noise_.jit(params_.inv_ms * noise_.skew(k),
                                          rng) +
                           noise_.jit(params_.rpc_ms, rng);
      }
      const Wrap& w = sp.wraps[k];
      WrapOutcome outcome = simulate_wrap(
          w, sp.wrap_cpu_cap(plan_.cpu_cap, k), behavior, timelines, rng);
      behavior += w.function_count();
      stage_latency = std::max(stage_latency, offset + outcome.latency);
      for (FunctionTimeline& tl : outcome.functions) {
        tl.invoke_ms += t + offset;
        tl.start_exec_ms += t + offset;
        tl.finish_ms += t + offset;
        shift_spans(tl.spans, t + offset);
        result.functions.push_back(std::move(tl));
      }
    }
    if (timelines) result.stage_latency_ms.push_back(stage_latency);
    t += stage_latency;
  }
  result.e2e_latency_ms = t;
  result.scale(run_scale);
  return result;
}

ResourceUsage WrapPlanBackend::resources() const {
  ResourceUsage peak;
  for (const StagePlan& sp : plan_.stages) {
    ResourceUsage stage;
    for (const Wrap& w : sp.wraps) {
      MemMb fn_mem = 0.0;
      std::size_t threads = 0;
      for (const ProcessGroup& g : w.processes) {
        for (FunctionId f : g.functions) fn_mem += wf_.function(f).memory_mb;
        if (g.mode == ExecMode::kThread) {
          threads += g.size();
        } else if (g.size() > 1) {
          threads += g.size() - 1;
        }
      }
      std::size_t processes;
      std::size_t pool_workers = 0;
      if (plan_.mode == IsolationMode::kPool) {
        processes = 1;  // the resident pool master
        pool_workers = w.function_count();
        threads = 0;
      } else {
        processes = w.forked_count() + 1;  // + resident orchestrator
      }
      stage.memory_mb += sandbox_memory_mb(params_, processes, threads,
                                           pool_workers, fn_mem);
      stage.sandboxes += 1;
      stage.processes += processes;
      stage.threads += threads;
    }
    if (stage.memory_mb > peak.memory_mb) {
      const double cpus = peak.cpus;
      peak = stage;
      peak.cpus = cpus;
    }
  }
  peak.cpus = static_cast<double>(plan_.allocated_cpus());
  return peak;
}

}  // namespace chiron

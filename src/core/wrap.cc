#include "core/wrap.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace chiron {

std::size_t Wrap::function_count() const {
  std::size_t n = 0;
  for (const ProcessGroup& g : processes) n += g.size();
  return n;
}

std::size_t Wrap::forked_count() const {
  std::size_t n = 0;
  for (const ProcessGroup& g : processes) {
    if (g.mode == ExecMode::kProcess) ++n;
  }
  return n;
}

std::size_t StagePlan::function_count() const {
  std::size_t n = 0;
  for (const Wrap& w : wraps) n += w.function_count();
  return n;
}

std::size_t StagePlan::process_count() const {
  std::size_t n = 0;
  for (const Wrap& w : wraps) n += w.process_count();
  return n;
}

std::size_t StagePlan::wrap_cpu_cap(std::size_t cap, std::size_t k) const {
  if (cap == 0 || wraps.size() <= 1) return cap;
  return std::max<std::size_t>(
      1, cap * wraps[k].process_count() /
             std::max<std::size_t>(1, process_count()));
}

std::size_t WrapPlan::sandbox_count() const {
  std::size_t peak = 0;
  for (const StagePlan& s : stages) peak = std::max(peak, s.wrap_count());
  return peak;
}

std::size_t WrapPlan::peak_processes() const {
  std::size_t peak = 0;
  for (const StagePlan& s : stages) peak = std::max(peak, s.process_count());
  return peak;
}

std::size_t WrapPlan::peak_stage_functions() const {
  std::size_t peak = 0;
  for (const StagePlan& s : stages) peak = std::max(peak, s.function_count());
  return peak;
}

std::size_t WrapPlan::allocated_cpus() const {
  if (cpu_cap > 0) return cpu_cap;
  // Uncapped: one CPU per concurrent execution vehicle — pool workers for
  // pool deployments, processes otherwise.
  return mode == IsolationMode::kPool ? peak_stage_functions()
                                      : peak_processes();
}

void WrapPlan::validate(const Workflow& wf) const {
  if (stages.size() != wf.stage_count()) {
    throw std::invalid_argument("plan has " + std::to_string(stages.size()) +
                                " stage plans for " +
                                std::to_string(wf.stage_count()) + " stages");
  }
  for (StageId s = 0; s < stages.size(); ++s) {
    const StagePlan& plan = stages[s];
    if (plan.wraps.empty()) {
      throw std::invalid_argument("stage " + std::to_string(s) +
                                  " has no wraps");
    }
    std::set<FunctionId> expected(wf.stage(s).functions.begin(),
                                  wf.stage(s).functions.end());
    std::set<FunctionId> seen;
    for (const Wrap& w : plan.wraps) {
      if (w.processes.empty()) {
        throw std::invalid_argument("stage " + std::to_string(s) +
                                    " has an empty wrap");
      }
      std::size_t thread_groups = 0;
      for (const ProcessGroup& g : w.processes) {
        if (g.functions.empty()) {
          throw std::invalid_argument("stage " + std::to_string(s) +
                                      " has an empty process group");
        }
        if (g.mode == ExecMode::kThread) ++thread_groups;
        if (mode == IsolationMode::kMpk &&
            g.functions.size() > kMpkMaxThreadsPerProcess) {
          throw std::invalid_argument(
              "MPK process group with " + std::to_string(g.functions.size()) +
              " threads exceeds the " +
              std::to_string(kMpkMaxThreadsPerProcess) + "-pkey limit");
        }
        for (FunctionId f : g.functions) {
          if (!expected.count(f)) {
            throw std::invalid_argument(
                "function " + std::to_string(f) + " does not belong to stage " +
                std::to_string(s));
          }
          if (!seen.insert(f).second) {
            throw std::invalid_argument("function " + std::to_string(f) +
                                        " assigned twice in stage " +
                                        std::to_string(s));
          }
        }
      }
      if (thread_groups > 1) {
        throw std::invalid_argument(
            "a wrap may have at most one orchestrator-thread group");
      }
      // Sandbox-sharing conflicts (§3.4): same written file or differing
      // runtime tags forbid co-location.
      std::map<std::string, FunctionId> writers;
      std::string tag;
      for (const ProcessGroup& g : w.processes) {
        for (FunctionId f : g.functions) {
          const FunctionSpec& spec = wf.function(f);
          if (tag.empty()) {
            tag = spec.runtime_tag;
          } else if (tag != spec.runtime_tag) {
            throw std::invalid_argument(
                "functions with runtime tags '" + tag + "' and '" +
                spec.runtime_tag + "' cannot share a sandbox");
          }
          for (const std::string& file : spec.files_written) {
            auto [it, inserted] = writers.emplace(file, f);
            if (!inserted && it->second != f) {
              throw std::invalid_argument(
                  "functions " + std::to_string(it->second) + " and " +
                  std::to_string(f) + " both write '" + file +
                  "' and cannot share a sandbox");
            }
          }
        }
      }
    }
    if (seen != expected) {
      throw std::invalid_argument("stage " + std::to_string(s) +
                                  " plan does not cover all functions");
    }
  }
}

namespace {

ProcessGroup single(FunctionId f, ExecMode mode) {
  ProcessGroup g;
  g.functions = {f};
  g.mode = mode;
  return g;
}

}  // namespace

WrapPlan one_to_one_plan(const Workflow& wf) {
  WrapPlan plan;
  for (const Stage& stage : wf.stages()) {
    StagePlan sp;
    for (FunctionId f : stage.functions) {
      Wrap w;
      // The single function runs in the sandbox's resident process.
      w.processes.push_back(single(f, ExecMode::kThread));
      sp.wraps.push_back(std::move(w));
    }
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

WrapPlan sand_plan(const Workflow& wf) {
  WrapPlan plan;
  for (const Stage& stage : wf.stages()) {
    StagePlan sp;
    Wrap w;
    for (FunctionId f : stage.functions) {
      w.processes.push_back(single(f, ExecMode::kProcess));
    }
    sp.wraps.push_back(std::move(w));
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

WrapPlan faastlane_plan(const Workflow& wf) {
  WrapPlan plan;
  for (const Stage& stage : wf.stages()) {
    StagePlan sp;
    Wrap w;
    if (stage.functions.size() == 1) {
      w.processes.push_back(single(stage.functions.front(), ExecMode::kThread));
    } else {
      for (FunctionId f : stage.functions) {
        w.processes.push_back(single(f, ExecMode::kProcess));
      }
    }
    sp.wraps.push_back(std::move(w));
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

WrapPlan faastlane_t_plan(const Workflow& wf) {
  WrapPlan plan;
  for (const Stage& stage : wf.stages()) {
    StagePlan sp;
    Wrap w;
    ProcessGroup g;
    g.mode = ExecMode::kThread;
    g.functions = stage.functions;
    w.processes.push_back(std::move(g));
    sp.wraps.push_back(std::move(w));
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

WrapPlan faastlane_plus_plan(const Workflow& wf, std::size_t per_sandbox) {
  if (per_sandbox == 0) throw std::invalid_argument("per_sandbox must be > 0");
  WrapPlan plan;
  for (const Stage& stage : wf.stages()) {
    StagePlan sp;
    Wrap current;
    for (FunctionId f : stage.functions) {
      current.processes.push_back(single(f, ExecMode::kProcess));
      if (current.processes.size() == per_sandbox) {
        sp.wraps.push_back(std::move(current));
        current = Wrap{};
      }
    }
    if (!current.processes.empty()) sp.wraps.push_back(std::move(current));
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

WrapPlan pool_plan(const Workflow& wf) {
  WrapPlan plan;
  plan.mode = IsolationMode::kPool;
  for (const Stage& stage : wf.stages()) {
    StagePlan sp;
    Wrap w;
    ProcessGroup g;
    g.mode = ExecMode::kThread;  // dispatched onto resident pool workers
    g.functions = stage.functions;
    w.processes.push_back(std::move(g));
    sp.wraps.push_back(std::move(w));
    plan.stages.push_back(std::move(sp));
  }
  return plan;
}

}  // namespace chiron

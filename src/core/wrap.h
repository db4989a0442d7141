// The wrap abstraction (paper §3): the unit of sandbox allocation in the
// "m-to-n" deployment model. A workflow stage's functions are partitioned
// into process groups; the functions inside one group execute as threads of
// that process; the groups of a wrap share one sandbox, forked sequentially
// by the wrap's resident orchestrator.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.h"
#include "workflow/workflow.h"

namespace chiron {

/// Intel MPK exposes 16 protection keys per process; one is reserved for
/// the shared/orchestrator arena, so an MPK-isolated process can host at
/// most 15 function threads with private domains (the pkey exhaustion
/// limit libmpk works around; we treat it as a hard planning constraint).
inline constexpr std::size_t kMpkMaxThreadsPerProcess = 15;

/// Functions executing inside one process. `mode` selects how the process
/// comes to exist: kThread groups run as threads of the wrap's resident
/// orchestrator process (no fork, thread-clone startup only); kProcess
/// groups are forked, paying startup and sequential-fork block time
/// (Eq. (4)). At most one kThread group per wrap — the orchestrator has a
/// single interpreter.
struct ProcessGroup {
  std::vector<FunctionId> functions;
  ExecMode mode = ExecMode::kProcess;

  std::size_t size() const { return functions.size(); }
};

/// One sandbox: an orchestrator plus its process groups, in fork order.
struct Wrap {
  std::vector<ProcessGroup> processes;

  std::size_t function_count() const;
  std::size_t process_count() const { return processes.size(); }
  /// Number of forked (kProcess) groups.
  std::size_t forked_count() const;
};

/// Partition of one stage's functions into wraps. Wrap 0 hosts the stage's
/// coordinating orchestrator; wraps 1..k-1 are invoked over the network
/// with per-invocation overhead (Eq. (2)).
struct StagePlan {
  std::vector<Wrap> wraps;

  std::size_t wrap_count() const { return wraps.size(); }
  std::size_t function_count() const;
  std::size_t process_count() const;
  /// CPUs wrap `k` may use when the whole deployment is capped at `cap`
  /// (0 = uncapped): the cap split by process share, at least one CPU,
  /// exact when there is one wrap.
  std::size_t wrap_cpu_cap(std::size_t cap, std::size_t k) const;
};

/// Complete deployment plan for a workflow.
struct WrapPlan {
  IsolationMode mode = IsolationMode::kNative;
  std::vector<StagePlan> stages;
  /// CPUs allocated to the whole deployment; 0 means "one CPU per
  /// concurrently-running process" (no sharing). PGP minimises this (§6.3).
  std::size_t cpu_cap = 0;

  /// Peak number of concurrently live sandboxes (max over stages).
  std::size_t sandbox_count() const;
  /// Peak number of concurrently live processes (max over stages).
  std::size_t peak_processes() const;
  /// Peak per-stage function count (pool-worker parallelism bound).
  std::size_t peak_stage_functions() const;
  /// CPUs this plan holds: cpu_cap if set, else peak processes.
  std::size_t allocated_cpus() const;

  /// Checks structural invariants against `wf` and throws
  /// std::invalid_argument on violation:
  ///  * every function of every stage appears in exactly one group of
  ///    exactly one wrap of that stage's plan (coverage & disjointness);
  ///  * no empty groups or wraps;
  ///  * at most one kThread group per wrap;
  ///  * under MPK isolation, no group exceeds kMpkMaxThreadsPerProcess
  ///    (pkey exhaustion);
  ///  * no two functions sharing a sandbox write the same file (§3.4);
  ///  * no two functions sharing a sandbox carry conflicting runtime tags.
  void validate(const Workflow& wf) const;
};

/// Builders for the fixed plans of the comparison systems (§2.2/§6):

/// One function per process, one process per wrap ("one-to-one" shape used
/// when a deployment manager needs a wrap view of OpenFaaS/ASF).
WrapPlan one_to_one_plan(const Workflow& wf);

/// SAND: one shared sandbox per workflow, every function a forked process.
WrapPlan sand_plan(const Workflow& wf);

/// Faastlane: one shared sandbox; sequential (single-function) stages run
/// as orchestrator threads, parallel functions fork processes.
WrapPlan faastlane_plan(const Workflow& wf);

/// Faastlane-T: one shared sandbox, everything a thread of the orchestrator.
WrapPlan faastlane_t_plan(const Workflow& wf);

/// Faastlane+: fixed `per_sandbox` single-function processes per wrap
/// (the paper uses 5).
WrapPlan faastlane_plus_plan(const Workflow& wf, std::size_t per_sandbox = 5);

/// Process-pool deployment (§4 "True Parallelism"): every stage's
/// functions in a single wrap backed by pre-forked pool workers (n = 1 in
/// the "m-to-n" model), avoiding all network cost.
WrapPlan pool_plan(const Workflow& wf);

}  // namespace chiron

// WrapPlanBackend: executes any WrapPlan as a simulated timeline. All
// sandbox-sharing systems are instances of this backend with different
// plans and modes:
//
//   SAND         = sand_plan,        native
//   Faastlane    = faastlane_plan,   native      (-M: mpk, -P: pool)
//   Faastlane-T  = faastlane_t_plan, native
//   Faastlane+   = faastlane_plus_plan, native
//   Chiron       = PGP plan,         native      (-M: mpk, -P: pool)
//
// The backend reads the Predictor's cost model (RuntimeParams spawn gaps,
// thread overheads, interaction charges, StagePlan::wrap_cpu_cap) and
// differs from it only by its NoiseConfig: log-normal jitter on every
// duration, a whole-run load factor, residual contention among
// co-resident threads, the GIL handoff cost, and superlinear fork and
// invocation skew — giving Fig. 12/14 real error to measure. With a zero
// NoiseConfig its e2e latency equals the Predictor's.
#pragma once

#include "core/wrap.h"
#include "platform/backend.h"
#include "runtime/params.h"

namespace chiron {

/// Simulates a wrap-plan deployment of one workflow.
class WrapPlanBackend : public Backend {
 public:
  WrapPlanBackend(std::string name, RuntimeParams params, Workflow wf,
                  WrapPlan plan, NoiseConfig noise = {});

  std::string name() const override { return name_; }
  RunResult run(Rng& rng) const override;
  /// run()'s e2e latency, with the same draws, without its timelines.
  TimeMs latency(Rng& rng) const override;
  ResourceUsage resources() const override;

  const WrapPlan& plan() const { return plan_; }

 private:
  struct WrapOutcome {
    TimeMs latency = 0.0;  ///< wrap-local completion time
    std::vector<FunctionTimeline> functions;  ///< wrap-local times
  };

  /// The one simulation body of run() and latency(): per-function
  /// timelines and per-stage latencies are built only when `timelines` is
  /// set. Without them, every simulation whose spans nobody reads runs
  /// the kernels' makespan-only entry on this thread's scratch.
  RunResult simulate(Rng& rng, bool timelines) const;

  /// Simulates one wrap on `cap` CPUs (0 = uncapped); times are relative
  /// to the wrap's own start. `behavior` points at the wrap's first entry
  /// of `behaviors_`.
  WrapOutcome simulate_wrap(const Wrap& w, std::size_t cap,
                            const FunctionBehavior* behavior, bool timelines,
                            Rng& rng) const;

  std::string name_;
  RuntimeParams params_;
  Workflow wf_;
  WrapPlan plan_;
  NoiseConfig noise_;
  Runtime runtime_;
  /// Each function's deterministic behaviour as it executes in this plan:
  /// the modelled thread overheads (thread context) and the residual
  /// contention. One entry per function in plan order (stage, wrap,
  /// process group, function); a request only jitters a copy.
  std::vector<FunctionBehavior> behaviors_;
};

}  // namespace chiron

// PGP — Prediction-based Graph Partitioning (paper §3.4, Algorithm 2).
//
// Outer loop: grow the per-stage process count n incrementally until the
// predicted end-to-end latency meets the SLO. For each n, every stage's
// functions are split round-robin into n processes and refined with
// Kernighan–Lin swaps guided by the Predictor. Once a feasible n is found,
// processes are packed into as few wraps as possible (fewest sandboxes)
// subject to the SLO, and finally the CPU allocation is minimised (§6.3:
// Chiron "explores the minimum number of CPUs while guaranteeing latency
// SLO").
//
// Functions with sandbox-sharing conflicts (runtime-tag mismatch or
// shared written files, §3.4) are placed in dedicated single-function
// wraps before partitioning.
#pragma once

#include <vector>

#include "core/predictor.h"
#include "core/wrap.h"
#include "runtime/params.h"
#include "workflow/workflow.h"

namespace chiron {

/// PGP tuning knobs.
struct PgpConfig {
  RuntimeParams params;
  IsolationMode mode = IsolationMode::kNative;
  Runtime runtime = Runtime::kPython3;
  /// Safety margin multiplier on predictions while planning (Fig. 14:
  /// "Chiron adopts larger parameters to estimate the latency").
  double conservative_factor = 1.08;
  /// Disable to measure the value of KL refinement (ablation bench).
  bool use_kl = true;
  /// Stages with more functions than this skip the quadratic KL pair
  /// search (§7 scalability note); round-robin init is kept.
  std::size_t kl_function_limit = 64;
  /// Disable to skip the CPU-minimisation pass (ablation bench).
  bool minimize_cpus = true;
  /// Latency the packing / CPU-minimisation phases may give back relative
  /// to the best found latency (still bounded by the SLO). The paper's
  /// measured Chiron latencies sit well below the SLO (Fig. 13 vs. the
  /// Faastlane+10 ms SLO of §6.2): resource savings come from threading,
  /// not from trading the whole SLO slack for time-sharing.
  double resource_slack = 0.10;
  /// Deploy-path threads: speculative outer-loop process counts evaluate
  /// concurrently on threads started for each wave and joined before
  /// schedule() reads it (stages within one count run in a plain loop),
  /// but the committed plan is bit-identical to the sequential search
  /// (parity tested). 0 = auto (hardware concurrency), 1 = fully
  /// sequential.
  std::size_t deploy_threads = 0;
  /// Memoize the CPU-capped wraps' group simulations inside the
  /// Predictor (see prediction_cache.h); identical plans with the cache
  /// off.
  bool prediction_cache = true;
};

/// Scheduler telemetry for the §7 scalability discussion.
struct PgpStats {
  std::size_t outer_iterations = 0;
  std::size_t kl_evaluations = 0;
  std::size_t predictor_calls = 0;
};

/// Result of scheduling one workflow.
struct PgpResult {
  WrapPlan plan;
  TimeMs predicted_latency_ms = 0.0;  ///< conservative prediction of `plan`
  bool slo_met = false;
  std::size_t processes = 0;  ///< n selected by the outer loop
  PgpStats stats;
};

/// The PGP scheduler.
class PgpScheduler {
 public:
  /// `profiles[f]` is function f's profiled behaviour.
  PgpScheduler(PgpConfig config, Workflow wf,
               std::vector<FunctionBehavior> profiles);

  /// Algorithm 2: plans the workflow against `slo_ms`.
  PgpResult schedule(TimeMs slo_ms) const;

  const Predictor& predictor() const { return predictor_; }

  /// Smallest cpu_cap keeping `plan` within `slo_ms` under `predictor`;
  /// leaves cpu_cap = 0 (uncapped) when no cap fits. Shared by PGP and the
  /// pool-mode deployment path. Binary-searches the cap (predicted latency
  /// is monotone non-increasing in the allocation).
  static WrapPlan with_min_cpus(const Predictor& predictor, WrapPlan plan,
                                TimeMs slo_ms);

  /// Reference implementation of with_min_cpus: the original linear
  /// 1..peak scan. Kept for the parity test and ablations; both return
  /// the same cap whenever latency is monotone in the cap (it is, for
  /// every engine in runtime/).
  static WrapPlan with_min_cpus_linear(const Predictor& predictor,
                                       WrapPlan plan, TimeMs slo_ms);

 private:
  /// Outcome of one outer-loop iteration (one process count n).
  struct OuterOutcome {
    WrapPlan candidate;
    std::vector<std::vector<ProcessGroup>> groups;
    TimeMs latency = 0.0;
    PgpStats stats;  ///< this iteration's partition + prediction work only
  };

  /// Functions of stage `s` that must be isolated in their own sandbox
  /// (precomputed per stage at construction — the set depends only on the
  /// workflow, not on the process count).
  const std::vector<FunctionId>& conflicted_functions(StageId s) const {
    return conflicted_[s];
  }

  /// Partitions stage `s`'s shareable functions into (up to) n process
  /// groups, refined with KL; returns the groups in fork order.
  std::vector<ProcessGroup> partition_stage(StageId s, std::size_t n,
                                            PgpStats& stats) const;

  /// Algorithm 2 lines 5-11 for one process count: partition every stage
  /// in turn, lay the groups out with the search-phase wrap count, and
  /// predict the workflow latency. Runs on the calling thread; schedule()
  /// fans whole process counts out with fork_join.
  OuterOutcome evaluate_outer(std::size_t n) const;

  /// Lays out `groups` into `wrap_count` balanced wraps (plus singleton
  /// wraps for the stage's conflicted functions).
  StagePlan layout_stage(StageId s, std::vector<ProcessGroup> groups,
                         std::size_t wrap_count) const;

  /// The search-phase wrap count for `group_count` processes: the
  /// break-even fill floor(T_RPC / T_Block) from Algorithm 2 line 7.
  std::size_t search_wrap_count(std::size_t group_count) const;

  PgpConfig config_;
  Workflow wf_;
  Predictor predictor_;
  /// conflicted_[s] = functions of stage s needing a dedicated sandbox.
  std::vector<std::vector<FunctionId>> conflicted_;
};

}  // namespace chiron

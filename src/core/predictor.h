// The white-box latency Predictor (paper §3.3).
//
//   Eq. (1): T_workflow = sum_i T_stage_i
//   Eq. (2): T_stage    = max(T_wrap_1, max_{k>1}(T_wrap_k + (k-1) T_INV)
//                              + T_RPC)
//   Eq. (3): T_wrap     = max_j T_P_j + T_IPC (|P| - 1)
//   Eq. (4): T_P_j      = (j-1) T_Block + T_Startup + T_exec_j
//
// T_exec of a multi-thread process comes from Algorithm 1: an event-driven
// simulation of GIL switching over the profiled CPU/block periods
// (runtime/gil.h). Pool and Java configurations replace the GIL engine
// with true-parallel processor sharing. Every makespan the search asks
// for (thread_exec, process_latency, an uncapped wrap) runs the kernels'
// makespan-only entry straight on the profiles: the thread overheads are
// applied inside the kernel, and the scratch is one workspace per thread.
//
// When a plan caps its CPU allocation below the number of concurrent
// processes, the stage estimate runs a second level of simulation: each
// process is collapsed into its effective CPU/block profile (the union of
// the instants its threads hold the GIL) and the processes time-share the
// allocated cores.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/prediction_cache.h"
#include "core/wrap.h"
#include "runtime/gil.h"
#include "runtime/params.h"
#include "workflow/workflow.h"

namespace chiron {

/// Predictor configuration.
struct PredictorConfig {
  RuntimeParams params;
  Runtime runtime = Runtime::kPython3;
  /// Multiplies the final estimate; Chiron plans with a conservative
  /// factor > 1 to keep SLO violations rare (§6.2, Fig. 14).
  double conservative_factor = 1.0;
  /// Memoize the span-recording group simulations of CPU-capped wraps
  /// (prediction_cache.h), which the min-CPU bisection re-asks with
  /// unchanged groups. Makespans never go through the cache. Results are
  /// bit-identical with the cache off.
  bool enable_cache = true;
};

/// Collapses an interleaving result into the process's outward CPU/block
/// profile: CPU whenever any thread held the GIL, block otherwise, over
/// [0, makespan]. Exposed for tests and the platform simulator.
FunctionBehavior effective_behavior(const InterleaveResult& result);

/// White-box workflow latency predictor.
class Predictor {
 public:
  /// `profiles[f]` is the (profiled) behaviour of function f. The vector
  /// must cover every function id used by the plans passed later.
  Predictor(PredictorConfig config, std::vector<FunctionBehavior> profiles);

  /// Algorithm 1: makespan of running `behaviors` as threads of one
  /// process, children started one per spawn gap. Uses GIL interleaving
  /// for Python/Node, true parallelism for Java.
  TimeMs thread_exec(const std::vector<FunctionBehavior>& behaviors,
                     IsolationMode mode) const;

  /// Eq. (4): latency of group `g`, the `fork_index`-th forked process of
  /// its wrap (0 for the orchestrator-resident thread group).
  TimeMs process_latency(const ProcessGroup& g, std::size_t fork_index,
                         IsolationMode mode) const;

  /// Eq. (3): latency of one wrap.
  TimeMs wrap_latency(const Wrap& w, IsolationMode mode,
                      std::size_t cpu_cap = 0) const;

  /// Eq. (2): arrival offset of a stage's wrap `k`. Wrap 0 starts at once;
  /// wrap k is reached after k-1 invocation overheads plus one network RPC
  /// (decentralized scheduling, §7, drops the serial term).
  TimeMs wrap_offset(std::size_t k) const;

  /// Eq. (2): latency of one stage (applies cpu_cap if the plan sets one).
  TimeMs stage_latency(const StagePlan& sp, IsolationMode mode,
                       std::size_t cpu_cap = 0) const;

  /// Eq. (1): end-to-end workflow latency of `plan` (times the
  /// conservative factor).
  TimeMs workflow_latency(const WrapPlan& plan) const;

  const PredictorConfig& config() const { return config_; }
  const std::vector<FunctionBehavior>& profiles() const { return profiles_; }

  /// Prediction-cache hit/miss counts accumulated by this predictor
  /// (CPU-capped wraps only).
  PredictionCache::Stats cache_stats() const { return cache_.stats(); }

  /// Number of memoized group simulations currently held.
  std::size_t cache_entries() const { return cache_.entry_count(); }

  /// Mirrors the hit/miss counts gathered since the previous publish into
  /// the global MetricsRegistry (`chiron.predictor.cache.{hit,miss}`).
  /// Called by the deploy path after each schedule; safe to call anytime.
  void publish_cache_metrics() const;

 private:
  /// Makespan of `tasks` on the right interleaving engine for this
  /// runtime/mode (`cpus` = 0: uncapped), on this thread's workspace.
  TimeMs exec_makespan(std::span<const TaskView> tasks, IsolationMode mode,
                       std::size_t cpus) const;
  /// Algorithm 1 makespan of group `g`: its functions as staggered
  /// threads, with the thread overheads of `g`'s context.
  TimeMs group_makespan(const ProcessGroup& g, IsolationMode mode) const;
  /// group_makespan's simulation with timeline spans, for the capped
  /// stage simulation's effective behaviours. Memoized in `cache_` when
  /// config_.enable_cache is set; the returned pointer stays valid for the
  /// predictor's lifetime. Thread-safe.
  std::shared_ptr<const InterleaveResult> group_exec(const ProcessGroup& g,
                                                     IsolationMode mode) const;

  PredictorConfig config_;
  std::vector<FunctionBehavior> profiles_;
  /// Memo table for group_exec; mutable because memoization does not
  /// change observable prediction values (cache on/off parity is tested).
  mutable PredictionCache cache_;
  /// High-water marks of the counts already mirrored into the global
  /// MetricsRegistry, so publish_cache_metrics() increments by delta.
  mutable std::atomic<std::uint64_t> published_hits_{0};
  mutable std::atomic<std::uint64_t> published_misses_{0};
};

}  // namespace chiron

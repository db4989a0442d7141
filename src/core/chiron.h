// The Chiron deployment manager facade (paper Fig. 9): submit a workflow
// and an SLO, get back a complete deployment — profiled behaviours, a wrap
// plan from PGP, orchestrator code per wrap, and a conservative latency
// prediction. Re-deploying with fresh profiles models the periodic
// Profiler/PGP refresh of §3.4.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "core/generator.h"
#include "core/pgp.h"
#include "core/profiler.h"
#include "core/wrap.h"
#include "runtime/params.h"
#include "workflow/branching.h"
#include "workflow/workflow.h"

namespace chiron {

/// Deployment-manager configuration.
struct ChironConfig {
  RuntimeParams params;
  IsolationMode mode = IsolationMode::kNative;
  ProfilerConfig profiler;
  double conservative_factor = 1.08;
  bool use_kl = true;
  /// Deploy-path worker threads for the PGP search (see PgpConfig);
  /// 0 = auto, 1 = sequential. The produced plan is identical either way.
  std::size_t deploy_threads = 0;
  /// Memoize the predictor's CPU-capped group simulations during
  /// planning (see PgpConfig::prediction_cache).
  bool prediction_cache = true;
  std::uint64_t seed = 0xC41503;
};

/// Everything Chiron produces for one workflow submission.
struct Deployment {
  WrapPlan plan;
  TimeMs predicted_latency_ms = 0.0;
  bool slo_met = false;
  std::size_t processes = 0;
  std::vector<Profile> profiles;
  PgpStats stats;
  std::vector<GeneratedWrap> orchestrators;
  std::string stack_yaml;
  /// True when this plan came from the degradation path (inflated
  /// profiles and/or the one-to-one fallback) rather than a plain deploy.
  bool degraded = false;
  /// True when the planner gave up on sandbox sharing and fell back to
  /// the one-sandbox-per-function layout (high observed failure rate:
  /// a crashing co-resident thread takes the whole wrap down, so blast
  /// radius beats latency).
  bool fell_back_one_to_one = false;
  /// Factor the profiled behaviours were scaled by before planning
  /// (1.0 = healthy). An inflated replan makes PGP budget for the slow
  /// reality the monitor observed instead of the optimistic profiles.
  double profile_inflation = 1.0;
};

/// Sliding-window SLO health monitor (degradation trigger). Feed it one
/// record() per served request; ask violated()/failure_rate()/p95_ms()
/// to decide whether the live deployment still honours its SLO.
struct SloMonitorConfig {
  std::size_t window = 128;      ///< requests kept in the sliding window
  std::size_t min_samples = 20;  ///< no verdicts before this many records
  /// Failure fraction above which the plan is considered unsafe and the
  /// one-to-one fallback (smallest blast radius) is preferred over an
  /// inflated re-plan.
  double max_failure_rate = 0.05;
};

class SloMonitor {
 public:
  explicit SloMonitor(SloMonitorConfig config = {});

  /// Records one request outcome. `ok` = completed (not timed out,
  /// dropped, or failed terminally); `latency_ms` is only meaningful for
  /// ok requests and is ignored otherwise.
  void record(TimeMs latency_ms, bool ok);

  std::size_t samples() const { return window_.size(); }
  bool warmed_up() const { return window_.size() >= config_.min_samples; }

  /// Fraction of windowed requests that failed; 0 before any record.
  double failure_rate() const;

  /// p95 latency over the window's successful requests; 0 when none.
  TimeMs p95_ms() const;

  /// True once warmed up and either the failure rate exceeds the
  /// configured bound or p95 exceeds `slo_ms`.
  bool violated(TimeMs slo_ms) const;

  const SloMonitorConfig& config() const { return config_; }

 private:
  struct Sample {
    TimeMs latency_ms;
    bool ok;
  };
  SloMonitorConfig config_;
  std::deque<Sample> window_;
  std::size_t failures_ = 0;  ///< failed samples currently in the window
};

/// A dynamic-DAG deployment (§7 "Dynamic DAGs"): one planned variant per
/// runtime-selectable branch, all guaranteed against the same SLO.
struct DynamicDeployment {
  std::vector<Deployment> variants;  ///< index-aligned with the branches
  /// Probability-weighted expected latency over the branches.
  TimeMs expected_latency_ms = 0.0;
  /// The slowest variant's prediction (what the SLO is guaranteed on).
  TimeMs worst_case_latency_ms = 0.0;
  bool slo_met = false;  ///< every variant within the SLO
};

/// The deployment manager.
class Chiron {
 public:
  explicit Chiron(ChironConfig config);

  /// Fig. 9 steps 1-5: profile every function, run PGP (or the pool-mode
  /// single-wrap path), minimise CPUs, and generate the wrap artifacts.
  Deployment deploy(const Workflow& wf, TimeMs slo_ms);

  /// Degraded deploy: profiles as usual, then scales every behaviour by
  /// `inflation` (>= 1) before planning, so PGP plans for the slowdown a
  /// live SloMonitor observed rather than the optimistic solo profiles.
  /// `force_one_to_one` skips PGP entirely and deploys the
  /// one-sandbox-per-function fallback plan.
  Deployment deploy_degraded(const Workflow& wf, TimeMs slo_ms,
                             double inflation,
                             bool force_one_to_one = false);

  /// SLO-degradation replanning: inspects `monitor` and, when the SLO is
  /// violated, produces a recovery deployment —
  ///   * failure rate above the monitor's bound → one-to-one fallback
  ///     (smallest blast radius);
  ///   * p95 above `slo_ms` → replan with profiles inflated by the
  ///     observed-over-predicted slowdown (p95 / `current` plan's
  ///     prediction, plus a safety margin). The replanned plan budgets
  ///     for that same slowdown, so its real p95 lands back under the
  ///     SLO at roughly SLO / margin.
  /// Returns nullopt while healthy or before the monitor warms up.
  /// Emits chiron.degrade.replans / chiron.degrade.fallbacks /
  /// chiron.slo.breaches counters and the chiron.degrade.inflation and
  /// chiron.degrade.safety_margin gauges (inflation = the slowdown times
  /// that margin, clamped to [1, 32]).
  /// When the global FlightRecorder is enabled, the breach is stamped into
  /// the event stream (slo.breach, then replan) and the recorder is
  /// auto-dumped to its armed path, so the events leading up to the breach
  /// are preserved before recovery overwrites them.
  std::optional<Deployment> replan_if_degraded(const SloMonitor& monitor,
                                               const Workflow& wf,
                                               TimeMs slo_ms,
                                               const Deployment& current);

  /// Dynamic-DAG deployment: resolves every branch of `wf`, plans each
  /// variant against `slo_ms` (worst-case guarantee), and reports the
  /// expected latency under the branch probabilities.
  DynamicDeployment deploy_dynamic(const BranchingWorkflow& wf, TimeMs slo_ms);

  const ChironConfig& config() const { return config_; }

 private:
  Deployment deploy_internal(const Workflow& wf, TimeMs slo_ms,
                             double inflation, bool force_one_to_one);

  ChironConfig config_;
  Rng rng_;
};

}  // namespace chiron

// Deployment backend interface: every system the paper evaluates (ASF,
// OpenFaaS, SAND, Faastlane and its -T/-+/-M/-P variants, Chiron and its
// -M/-P variants) is a Backend that simulates the end-to-end timeline of
// one request and reports the resources the deployment holds.
//
// Backends are the reproduction's ground truth: they run the same
// interleaving engines and read the same RuntimeParams cost model as the
// Predictor, on the true behaviours. The only model gaps are the
// NoiseConfig terms below — per-duration jitter, the whole-run load
// factor, residual thread contention, the GIL handoff cost, and fork and
// invocation skew — so prediction error (Fig. 12) is an honest
// measurement of exactly those, not a tautology. Backends inject no
// faults: the serving engine (ClusterSimulator) decides every fault per
// attempt, around the latency a backend returns.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "runtime/gil.h"
#include "runtime/resources.h"
#include "workflow/workflow.h"

namespace chiron {

/// Timeline of one function within one simulated request.
struct FunctionTimeline {
  FunctionId id = kInvalidFunction;
  TimeMs invoke_ms = 0.0;      ///< when its vehicle was dispatched
  TimeMs start_exec_ms = 0.0;  ///< first instant of actual progress
  TimeMs finish_ms = 0.0;
  std::vector<TimelineSpan> spans;  ///< absolute-time spans

  /// Dispatch-to-finish latency (the per-function CDF metric of Fig. 15).
  TimeMs latency() const { return finish_ms - invoke_ms; }
};

/// Outcome of simulating one request end to end.
struct RunResult {
  TimeMs e2e_latency_ms = 0.0;
  std::vector<TimeMs> stage_latency_ms;
  std::vector<FunctionTimeline> functions;
  /// Billable state transitions (ASF charges these, Fig. 19); zero for
  /// self-hosted platforms.
  std::size_t state_transitions = 0;

  /// Multiplies every latency and timeline instant by `factor`.
  void scale(double factor);
};

/// Simulation noise configuration shared by all backends.
struct NoiseConfig {
  /// Log-normal sigma applied to every duration independently
  /// (0 = deterministic).
  double jitter_sigma = 0.045;
  /// Correlated whole-run log-normal sigma (machine load state): scales
  /// every duration of one request by a single factor, so it does NOT
  /// average out across a request's many segments.
  double run_sigma = 0.03;
  /// Residual per-extra-co-resident-thread CPU dilation on top of the
  /// modeled RuntimeParams::thread_contention(), invisible to the
  /// Predictor.
  double thread_contention = 0.0015;
  /// Wall-clock lost per GIL handoff (cv wakeup + cache refill); the
  /// Predictor models it as zero.
  TimeMs gil_handoff_ms = 0.05;
  /// Model mis-specification: in the real system, sequential fork-block
  /// and multi-invocation costs grow mildly superlinearly (scheduler queue
  /// pressure); the Predictor's Eq. (2)/(4) assume linearity. The j-th
  /// fork costs block * (1 + min(skew * j / 2, 0.25)); the k-th invocation
  /// likewise (the dilation saturates at +25 %).
  double model_skew = 0.012;

  /// `value` with one independent jitter draw applied.
  TimeMs jit(TimeMs value, Rng& rng) const {
    return jitter_sigma > 0.0 ? value * rng.jitter(jitter_sigma) : value;
  }
  /// Dilation of the `k`-th sequential fork or invocation.
  double skew(std::size_t k) const {
    return 1.0 + std::min(0.25, model_skew * static_cast<double>(k) / 2.0);
  }
  /// One request's correlated load factor.
  double run_scale(Rng& rng) const {
    return run_sigma > 0.0 ? rng.jitter(run_sigma) : 1.0;
  }
};

/// A deployed system serving one workflow.
class Backend {
 public:
  virtual ~Backend() = default;

  /// Display name, e.g. "Faastlane-M".
  virtual std::string name() const = 0;

  /// Simulates one request; `rng` drives the run's jitter.
  virtual RunResult run(Rng& rng) const = 0;

  /// The e2e latency of one simulated request: exactly
  /// `run(rng).e2e_latency_ms`, drawing the same numbers from `rng` in the
  /// same order, so either entry can serve a seeded run bit for bit. The
  /// serving engines call only this. The default runs `run()`; a backend
  /// whose timeline costs more than its latency overrides it.
  virtual TimeMs latency(Rng& rng) const { return run(rng).e2e_latency_ms; }

  /// Resources the deployment holds while serving (peak residency).
  virtual ResourceUsage resources() const = 0;

  /// Mean e2e latency over `runs` simulated requests.
  TimeMs mean_latency(Rng& rng, int runs) const;
};

}  // namespace chiron

// Closed-loop cluster simulation: a pool of worker nodes serving an
// arrival process of workflow requests against a deployed Backend, with
// instance scale-out, cold starts, keep-alive expiry, queueing, and — when
// a FaultSpec is armed — seeded fault injection with configurable
// retry/timeout recovery.
//
// This complements the analytic node_throughput_rps() model (Fig. 16):
// it shows *achieved* throughput and tail latency under offered load, and
// reproduces the cascading-cold-start penalty of the one-to-one model
// (§1: sandbox initialisation "can dominate the overall latency";
// related work: Xanadu/ORION pre-warming) versus the m-to-n model, whose
// wraps scale out as one unit.
#pragma once

#include <string>

#include "fault/fault.h"
#include "metrics/stats.h"
#include "platform/backend.h"
#include "platform/router.h"
#include "runtime/params.h"
#include "workflow/arrivals.h"

namespace chiron {

namespace obs {
class Tracer;
class MetricsRegistry;
class FlightRecorder;
}

/// Cluster and load configuration.
struct ClusterConfig {
  std::size_t nodes = 1;
  /// How the serving engine places each dispatch across nodes. Never
  /// consulted at nodes == 1, so single-node runs are policy-independent
  /// bit-for-bit.
  RouterPolicy router = RouterPolicy::kRoundRobin;
  /// Worker threads for the windowed engine: each node's event shard is
  /// driven by a window worker started for the run and joined before it
  /// returns, advancing in conservative time windows with cross-node
  /// events delivered at window barriers. 1 (the default) runs the
  /// identical windowed schedule inline; results are bit-identical for
  /// every thread count (ShardedParallelParityTest), so this knob trades
  /// wall-clock only, never results. Only windows that route enough
  /// dispatches to pay for a barrier are handed to the workers; narrower
  /// ones run inline, so extra threads never slow a run below its
  /// sequential schedule.
  /// 0 = one thread per hardware core. Capped at the node count, so a
  /// one-node run is always sequential.
  std::size_t sim_threads = 1;
  /// Idle instances are reclaimed after this long.
  TimeMs keep_alive_ms = 10000.0;
  /// Simulated duration.
  TimeMs horizon_ms = 20000.0;
  double offered_rps = 50.0;
  ArrivalKind arrivals = ArrivalKind::kPoisson;
  /// Requests abandoned if still queued at the horizon count as failed.
  std::uint64_t seed = 0xC1057E4;
  /// Fault model applied to every attempt (all-zero = healthy cluster;
  /// the healthy run is byte-identical to a build without the fault
  /// layer). Decisions hash (faults.seed, request, attempt), so a seeded
  /// faulty run is exactly reproducible.
  FaultSpec faults;
  /// Recovery policy: failed attempts back off and retry up to
  /// max_attempts, then the request is dropped; timeout_ms (if set)
  /// abandons a request at arrival + timeout_ms wherever it is — queued,
  /// in service (the completion event is cancelled), or backing off.
  RetryPolicy retry;
  /// Optional observability sinks (not owned; null = off). The tracer
  /// receives *virtual-time* events (pid kVirtualPid): one async span per
  /// request, cold-start/fault/timeout instants, retry.backoff spans, and
  /// queue-depth counter samples. The registry receives, once at the end
  /// of the run (a mid-run scrape sees none of them move):
  /// cluster.cold_starts, cluster.queue_depth, cluster.peak_instances,
  /// cluster.e2e_latency_ms, cluster.node.<k>.{cold_starts,queue_depth},
  /// chiron.fault.injected[.<kind>], chiron.retry.attempts,
  /// chiron.request.timeout and the cluster.sim.* engine counters, all
  /// matching the returned ClusterResult.
  obs::Tracer* tracer = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
  /// Always-on flight recorder (not owned; null = off). Every request is
  /// minted a process-unique id at admission (obs::mint_request_ids) and
  /// its whole causal chain — admission, queueing, cold starts, service
  /// attempts, injected faults, retries, timeout/drop/completion — is
  /// recorded against that id, so one timeline(id) call reconstructs the
  /// request end to end. The same id labels the tracer's async request
  /// span and fault instants ("request" arg).
  obs::FlightRecorder* recorder = nullptr;
};

/// Per-node slice of a run. The reference loop reports a single entry
/// covering its whole pool, so a one-node engine run and a reference run
/// compare equal field-for-field.
struct NodeResult {
  std::size_t routed = 0;       ///< dispatches placed on this node
  std::size_t completed = 0;    ///< requests that finished here
  std::size_t cold_starts = 0;  ///< instances launched here
  std::size_t node_crashes = 0; ///< NodeCrash faults that hit this node
  std::size_t peak_queue = 0;   ///< max depth of this node's queue

  friend bool operator==(const NodeResult&, const NodeResult&) = default;
};

/// Outcome of one closed-loop run. Every offered request reaches exactly
/// one terminal state: offered == completed + timed_out + dropped.
struct ClusterResult {
  std::size_t offered = 0;     ///< requests generated
  std::size_t completed = 0;   ///< finished within their deadline
  std::size_t cold_starts = 0; ///< instances launched
  std::size_t failed = 0;      ///< injected attempt failures (cold + crash)
  std::size_t retried = 0;     ///< retry attempts scheduled
  std::size_t timed_out = 0;   ///< requests abandoned at their deadline
  std::size_t dropped = 0;     ///< requests dropped after max_attempts
  double achieved_rps = 0.0;
  TimeMs mean_ms = 0.0;        ///< mean end-to-end (incl. queueing + cold)
  TimeMs p50_ms = 0.0;
  TimeMs p95_ms = 0.0;
  TimeMs p99_ms = 0.0;
  double mean_busy_instances = 0.0;  ///< time-averaged busy instances
  std::size_t peak_instances = 0;    ///< max live (busy + warm) instances
  std::size_t peak_queue = 0;        ///< max queued requests (cluster-wide)
  std::size_t node_crashes = 0;      ///< NodeCrash faults fired this run
  /// First trace/request id of this run: arrival i carries id
  /// request_id_base + i in the recorder and tracer (0 when no run
  /// happened). Fault decisions still hash the arrival *index*, so ids
  /// never perturb seeded reproducibility.
  std::uint64_t request_id_base = 0;
  /// Streaming accumulator over the same per-request end-to-end latencies
  /// as mean/p50/p95/p99, fed in completion order. run_batch merges these
  /// across seeds via RunningStats::merge.
  RunningStats latency_stats;
  /// Per-node breakdown: one entry per node from the engine; exactly one
  /// pool-wide entry from the reference loop.
  std::vector<NodeResult> node_results;

  /// Exact (bitwise) equality over every field — the sweep determinism
  /// tests assert per-seed results are identical across thread counts.
  friend bool operator==(const ClusterResult&, const ClusterResult&) = default;
};

/// One scenario of a sweep: a cluster/load configuration driving a backend.
/// The backend is not owned and must outlive the sweep; it is shared by
/// every seed of the scenario (and possibly other scenarios), so it must
/// be safe to call run() on concurrently — all plan backends are:
/// WrapPlanBackend and OneToOneBackend do not change after construction,
/// and neither owns a Predictor or a cache.
struct ScenarioSpec {
  std::string name;
  ClusterConfig config;  ///< config.seed is overridden per sweep seed
  const Backend* backend = nullptr;
  /// Sequential cold-start fronts a scale-out pays (one-to-one: stage
  /// count; wrap plans: 1) — same meaning as ClusterSimulator::run().
  std::size_t cascading_stages = 1;
};

/// Aggregated outcome of one scenario across all sweep seeds.
struct ScenarioOutcome {
  std::string name;
  std::vector<std::uint64_t> seeds;  ///< seeds actually run, in order
  std::vector<ClusterResult> runs;   ///< runs[i] is the result for seeds[i]
  RunningStats latency_ms;  ///< merged per-request e2e latency over seeds
  RunningStats achieved_rps;  ///< distribution of per-run achieved rps
  // Sums over runs.
  std::size_t offered = 0;
  std::size_t completed = 0;
  std::size_t cold_starts = 0;
  std::size_t timed_out = 0;
  std::size_t dropped = 0;
};

/// Cold-start penalty for scaling a deployment instance from zero. The
/// one-to-one model cold-starts each stage's sandboxes only when the
/// request reaches them — a cascading penalty across stages; a wrap
/// deployment's sandboxes scale out as one unit.
TimeMs cold_start_penalty(const RuntimeParams& params,
                          std::size_t cascading_stages);

/// Discrete-event closed-loop simulator.
class ClusterSimulator {
 public:
  /// Throws std::invalid_argument, naming the field, for a config the
  /// engine would otherwise reinterpret: nodes == 0; a negative or
  /// non-finite keep_alive_ms, retry.base_backoff_ms,
  /// retry.max_backoff_ms or retry.timeout_ms; retry.max_attempts == 0;
  /// retry.jitter outside [0, 1].
  ClusterSimulator(ClusterConfig config, RuntimeParams params);

  /// Simulates `backend` under the configured load. `cascading_stages`
  /// is the number of sequential cold-start fronts a scale-out pays
  /// (one-to-one: the workflow's stage count; wrap plans: 1).
  ClusterResult run(const Backend& backend, std::size_t cascading_stages) const;

  /// Scenario-sweep engine: runs every spec under every seed (spec-major
  /// order) and fans the specs.size() * seeds.size() independent runs
  /// across `threads` threads (fork_join; started for this call, joined
  /// before it returns). Each run gets its own EventQueue,
  /// FaultInjector, Rng stream, and latency accumulator, and its block of
  /// request ids is pre-minted sequentially before fan-out — so per-seed
  /// ClusterResults are bit-identical whatever the thread count (0 or 1 =
  /// plain sequential loop on the caller). An empty `seeds` runs each
  /// spec once under its own config.seed.
  static std::vector<ScenarioOutcome> run_batch(
      const std::vector<ScenarioSpec>& specs,
      const std::vector<std::uint64_t>& seeds, const RuntimeParams& params,
      std::size_t threads = 1);

  /// Simulation core shared by run() and run_batch(): consumes
  /// pre-generated arrival times and a pre-minted request-id block, so
  /// batch runs can mint deterministically before fanning out (and parity
  /// tests can drive the engine and the oracle over byte-identical inputs
  /// — which is why the prepared family is public).
  ///
  /// Runs the windowed engine at every node count: each node owns a
  /// shard (capacity, warm-instance ring, waiting queue, typed event
  /// heap), the Router places each dispatch, and shards advance in
  /// conservative time windows with zero steady-state heap allocations
  /// per request. The parity chain is reference == engine(nodes=1)
  /// (ClusterParityTest) plus engine(threads=1) == engine(threads=N)
  /// (ShardedParallelParityTest). `arrival_times` must be sorted
  /// ascending, as ArrivalGenerator::generate returns them; anything
  /// else throws std::invalid_argument.
  ClusterResult run_prepared(const Backend& backend,
                             std::size_t cascading_stages,
                             const std::vector<TimeMs>& arrival_times,
                             std::uint64_t id_base) const;

  /// The retired per-request-closure serving loop, kept verbatim as the
  /// parity oracle (the run_slow_reference pattern of the interleave
  /// kernels). It pools every node's resources into one cluster-wide
  /// capacity with a single warm pool and queue, so config.nodes only
  /// scales the capacity and config.router / faults.node_crash are
  /// ignored. It also ignores config.tracer and config.recorder: only
  /// config.metrics receives its telemetry. ClusterParityTest asserts the engine at nodes == 1 (with
  /// the node scaled to the pool) produces bit-identical ClusterResults
  /// across randomized configs, and bench_micro_cluster measures the
  /// engine's speedup against it.
  ClusterResult run_prepared_reference(const Backend& backend,
                                       std::size_t cascading_stages,
                                       const std::vector<TimeMs>& arrival_times,
                                       std::uint64_t id_base) const;

 private:
  ClusterConfig config_;
  RuntimeParams params_;
};

}  // namespace chiron

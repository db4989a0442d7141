#include "platform/cluster.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/fork_join.h"
#include "metrics/stats.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "platform/cluster_internal.h"
#include "sim/event_queue.h"

namespace chiron {

// The capacity floor lives in cluster_internal.h, shared with the
// windowed engine (cluster_parallel.cc).
using cluster_detail::floor_capacity;

namespace {

/// Instances the cluster can host with every node's resources pooled into
/// one cluster-wide pot (the reference loop's capacity; config.nodes only
/// scales it). Each resource dimension bounds capacity
/// independently: a memory-only (or cpu-only) deployment is limited by
/// its nonzero dimension alone.
std::size_t cluster_capacity(const ResourceUsage& usage,
                             const RuntimeParams& params,
                             const ClusterConfig& config) {
  const double total_cpus =
      static_cast<double>(params.node_cpus * config.nodes);
  const double total_mem =
      params.node_memory_mb * static_cast<double>(config.nodes);
  double capacity = std::numeric_limits<double>::infinity();
  if (usage.cpus > 0.0) capacity = std::min(capacity, total_cpus / usage.cpus);
  if (usage.memory_mb > 0.0) {
    capacity = std::min(capacity, total_mem / usage.memory_mb);
  }
  return std::max<std::size_t>(1, floor_capacity(capacity));
}

/// Rejects the values the engine would otherwise quietly reinterpret,
/// naming the field.
void validate(const ClusterConfig& config) {
  auto reject = [](const std::string& field, const std::string& rule,
                   double value) {
    char got[32];
    std::snprintf(got, sizeof got, "%g", value);
    throw std::invalid_argument("ClusterConfig: " + field + " must be " +
                                rule + ", got " + got);
  };
  if (config.nodes == 0) reject("nodes", ">= 1", 0.0);
  const RetryPolicy& retry = config.retry;
  const std::pair<const char*, TimeMs> durations[] = {
      {"keep_alive_ms", config.keep_alive_ms},
      {"retry.base_backoff_ms", retry.base_backoff_ms},
      {"retry.max_backoff_ms", retry.max_backoff_ms},
      {"retry.timeout_ms", retry.timeout_ms}};
  for (const auto& [field, ms] : durations) {
    if (!std::isfinite(ms) || ms < 0.0) reject(field, "finite and >= 0", ms);
  }
  if (retry.max_attempts == 0) reject("retry.max_attempts", ">= 1", 0.0);
  if (!(retry.jitter >= 0.0 && retry.jitter <= 1.0)) {
    reject("retry.jitter", "in [0, 1]", retry.jitter);
  }
}

}  // namespace

TimeMs cold_start_penalty(const RuntimeParams& params,
                          std::size_t cascading_stages) {
  return params.sandbox_cold_start_ms *
         static_cast<TimeMs>(std::max<std::size_t>(1, cascading_stages));
}

ClusterSimulator::ClusterSimulator(ClusterConfig config, RuntimeParams params)
    : config_(config), params_(params) {
  validate(config_);
}

ClusterResult ClusterSimulator::run(const Backend& backend,
                                    std::size_t cascading_stages) const {
  // Generate the arrival process and mint the request-id block up front,
  // then hand off to the shared core. run_batch() does the same per
  // (spec, seed) job *sequentially* before fanning out, which is what
  // keeps batch results independent of the thread count.
  Rng rng(config_.seed);
  ArrivalGenerator arrivals(config_.arrivals, config_.offered_rps,
                            rng.split());
  const std::vector<TimeMs> arrival_times =
      arrivals.generate(config_.horizon_ms);
  return run_prepared(backend, cascading_stages, arrival_times,
                      obs::mint_request_ids(arrival_times.size()));
}

// Every node count runs on the windowed engine (cluster_parallel.cc): one
// shard per node, advancing in conservative time windows. A one-node run
// is a single shard in a single window (unless a node crash cuts it), and
// is bit-identical to run_prepared_reference (asserted by
// ClusterParityTest); any thread count replays the one-thread schedule
// bit-for-bit (ShardedParallelParityTest).
ClusterResult ClusterSimulator::run_prepared(
    const Backend& backend, std::size_t cascading_stages,
    const std::vector<TimeMs>& arrival_times, std::uint64_t id_base) const {
  return cluster_detail::run_prepared_windowed(
      config_, params_, backend, cascading_stages, arrival_times, id_base);
}

// ---------------------------------------------------------------------------
// Retired closure-based loop, kept verbatim as the parity oracle.
// ---------------------------------------------------------------------------
ClusterResult ClusterSimulator::run_prepared_reference(
    const Backend& backend, std::size_t cascading_stages,
    const std::vector<TimeMs>& arrival_times, std::uint64_t id_base) const {
  const std::size_t max_instances =
      cluster_capacity(backend.resources(), params_, config_);

  // Reconstruct the seeded stream exactly as run() threads it: the first
  // split fed the arrival generator, the second (below) drives service
  // times.
  Rng rng(config_.seed);
  (void)rng.split();

  ClusterResult result;
  result.offered = arrival_times.size();

  // The reference attaches no tracer or recorder, but reports the minted
  // id block so its result compares equal to the engine's. Fault
  // decisions hash the arrival *index*, never the minted id.
  result.request_id_base = id_base;

  const FaultInjector injector(config_.faults);
  const RetryPolicy& retry = config_.retry;
  const bool has_timeout = retry.timeout_ms > 0.0;

  obs::MetricsRegistry* metrics = config_.metrics;
  obs::Counter* cold_counter =
      metrics ? &metrics->counter("cluster.cold_starts") : nullptr;
  obs::Gauge* queue_gauge =
      metrics ? &metrics->gauge("cluster.queue_depth") : nullptr;
  obs::Histogram* latency_hist =
      metrics ? &metrics->histogram("cluster.e2e_latency_ms") : nullptr;
  obs::Counter* fault_counter =
      metrics ? &metrics->counter("chiron.fault.injected") : nullptr;
  obs::Counter* retry_counter =
      metrics ? &metrics->counter("chiron.retry.attempts") : nullptr;
  obs::Counter* timeout_counter =
      metrics ? &metrics->counter("chiron.request.timeout") : nullptr;

  auto count_fault = [&](FaultKind kind) {
    if (fault_counter) fault_counter->inc();
    if (metrics) {
      metrics
          ->counter(std::string("chiron.fault.injected.") + to_string(kind))
          .inc();
    }
  };

  // Instance states: warm holds the idle-since time of each resident but
  // idle instance.
  std::vector<TimeMs> warm;
  std::size_t live = 0;             // busy + warm instances
  std::size_t busy = 0;

  // Per-request recovery state. A request is terminal (kDone) exactly once:
  // completed, timed out, or dropped after max_attempts.
  struct ReqState {
    TimeMs arrival = 0.0;
    std::uint32_t attempt = 1;
    enum class Phase : std::uint8_t {
      kWaiting,   ///< arrival not yet processed
      kQueued,    ///< waiting for capacity
      kRunning,   ///< on an instance (pending_ev = completion or crash)
      kBackoff,   ///< waiting to re-attempt (pending_ev = retry)
      kDone,
    } phase = Phase::kWaiting;
    EventQueue::Handle pending_ev = 0;
    EventQueue::Handle timeout_ev = 0;
    bool has_timeout_ev = false;
  };
  std::vector<ReqState> reqs(arrival_times.size());

  // Waiting request ids; timed-out entries are erased eagerly.
  std::deque<std::uint64_t> queue;

  auto note_queue_depth = [&] {
    if (queue_gauge) queue_gauge->set(static_cast<double>(queue.size()));
  };

  std::vector<double> latencies;
  double busy_area = 0.0;  // integral of busy instances over time
  TimeMs last_event = 0.0;
  Rng run_rng = rng.split();
  std::size_t routed = 0;  // dispatches placed (mirrors NodeResult::routed)

  EventQueue events;
  const TimeMs cold_penalty = cold_start_penalty(params_, cascading_stages);

  auto account = [&](TimeMs now) {
    busy_area += static_cast<double>(busy) * (now - last_event);
    last_event = now;
  };

  // Reclaims warm instances idle past the keep-alive.
  auto reap = [&](TimeMs now) {
    auto it = warm.begin();
    while (it != warm.end()) {
      if (now - *it >= config_.keep_alive_ms) {
        it = warm.erase(it);
        --live;
      } else {
        ++it;
      }
    }
  };

  // Marks `id` terminal and disarms its outstanding timeout.
  auto finalize = [&](std::uint64_t id) {
    ReqState& r = reqs[id];
    r.phase = ReqState::Phase::kDone;
    if (r.has_timeout_ev) {
      events.cancel(r.timeout_ev);
      r.has_timeout_ev = false;
    }
  };

  // Pops the next still-live queued request, skipping tombstones left by
  // timeouts (defensive: timeouts erase eagerly, so skips are rare).
  auto take_queued = [&]() -> std::optional<std::uint64_t> {
    while (!queue.empty()) {
      const std::uint64_t id = queue.front();
      queue.pop_front();
      if (reqs[id].phase == ReqState::Phase::kQueued) return id;
    }
    return std::nullopt;
  };

  // Forward declarations: the recovery paths are mutually recursive
  // (completion -> queued handoff -> service; crash -> retry -> start).
  std::function<void(std::uint64_t, TimeMs)> start_request;
  std::function<void(std::uint64_t, TimeMs, TimeMs)> begin_service;

  // Handles one failed attempt at time `t`: schedules a capped-exponential
  // backoff retry, or drops the request once attempts are exhausted.
  auto fail_attempt = [&](std::uint64_t id, TimeMs t, TimeMs extra_delay) {
    ReqState& r = reqs[id];
    ++result.failed;
    if (r.attempt < retry.max_attempts) {
      ++result.retried;
      if (retry_counter) retry_counter->inc();
      const TimeMs backoff = injector.retry_backoff_ms(retry, r.attempt, id);
      ++r.attempt;
      r.phase = ReqState::Phase::kBackoff;
      r.pending_ev = events.schedule(
          t + extra_delay + backoff,
          [&, id] { start_request(id, events.now()); });
    } else {
      ++result.dropped;
      finalize(id);
    }
  };

  // Places `id` on an instance at `now` (startup = 0 for warm reuse) and
  // schedules its completion — or its mid-execution crash.
  begin_service = [&](std::uint64_t id, TimeMs now, TimeMs startup) {
    ReqState& r = reqs[id];
    r.phase = ReqState::Phase::kRunning;
    ++busy;
    TimeMs service = backend.latency(run_rng);
    if (injector.straggles(id, r.attempt)) {
      service *= config_.faults.straggler_multiplier;
      count_fault(FaultKind::kStraggler);
    }
    if (injector.crashes(id, r.attempt)) {
      const TimeMs crash_at =
          now + startup + service * config_.faults.crash_point;
      r.pending_ev = events.schedule(crash_at, [&, id, crash_at] {
        account(crash_at);
        --busy;
        --live;  // the crash takes the sandbox with it
        count_fault(FaultKind::kCrash);
        fail_attempt(id, crash_at, 0.0);
        // The crash freed a slot: a queued request can now cold-start.
        if (const auto qid = take_queued()) {
          note_queue_depth();
          start_request(*qid, crash_at);
        }
      });
      return;
    }
    const TimeMs finish = now + startup + service;
    r.pending_ev = events.schedule(finish, [&, id, finish] {
      account(finish);
      --busy;
      const TimeMs latency = finish - reqs[id].arrival;
      latencies.push_back(latency);
      ++result.completed;
      finalize(id);
      if (latency_hist) latency_hist->observe(latency);
      if (const auto qid = take_queued()) {
        note_queue_depth();
        // The finishing instance is handed to the queued request directly:
        // it never visits the warm pool, so reap() cannot reclaim it out
        // from under the handoff (the keep_alive_ms == 0 cold-start bug).
        reap(finish);
        begin_service(*qid, finish, 0.0);
      } else {
        warm.push_back(finish);
      }
    });
  };

  start_request = [&](std::uint64_t id, TimeMs now) {
    account(now);
    reap(now);
    ++routed;
    ReqState& r = reqs[id];
    if (!warm.empty()) {
      warm.pop_back();  // LIFO keeps hot instances hot
      begin_service(id, now, 0.0);
    } else if (live < max_instances) {
      if (injector.cold_start_fails(id, r.attempt)) {
        // The sandbox dies during boot: the boot time is still paid (it
        // delays the retry) but no instance comes up.
        count_fault(FaultKind::kColdStart);
        fail_attempt(id, now, cold_penalty);
        return;
      }
      ++live;
      result.peak_instances = std::max(result.peak_instances, live);
      ++result.cold_starts;
      if (cold_counter) cold_counter->inc();
      begin_service(id, now, cold_penalty);
    } else {
      r.phase = ReqState::Phase::kQueued;
      queue.push_back(id);
      result.peak_queue = std::max(result.peak_queue, queue.size());
      note_queue_depth();
    }
  };

  // Abandons `id` at its deadline, wherever it is.
  auto on_timeout = [&](std::uint64_t id, TimeMs deadline) {
    ReqState& r = reqs[id];
    r.has_timeout_ev = false;
    ++result.timed_out;
    if (timeout_counter) timeout_counter->inc();
    switch (r.phase) {
      case ReqState::Phase::kQueued: {
        const auto it = std::find(queue.begin(), queue.end(), id);
        if (it != queue.end()) queue.erase(it);
        note_queue_depth();
        break;
      }
      case ReqState::Phase::kRunning: {
        // The platform aborts the handler but keeps the sandbox.
        events.cancel(r.pending_ev);
        account(deadline);
        --busy;
        if (const auto qid = take_queued()) {
          note_queue_depth();
          reap(deadline);
          begin_service(*qid, deadline, 0.0);
        } else {
          warm.push_back(deadline);
        }
        break;
      }
      case ReqState::Phase::kBackoff:
        events.cancel(r.pending_ev);
        break;
      default:
        break;
    }
    r.phase = ReqState::Phase::kDone;
  };

  for (std::size_t i = 0; i < arrival_times.size(); ++i) {
    const TimeMs at = arrival_times[i];
    const std::uint64_t id = i;
    reqs[id].arrival = at;
    events.schedule(at, [&, at, id] {
      if (has_timeout) {
        reqs[id].has_timeout_ev = true;
        reqs[id].timeout_ev =
            events.schedule(at + retry.timeout_ms, [&, id] {
              on_timeout(id, events.now());
            });
      }
      start_request(id, at);
    });
  }
  events.run();

  // Single pool-wide node entry so the reference result compares equal
  // field-for-field to a one-node engine run.
  result.node_results.resize(1);
  result.node_results[0].routed = routed;
  result.node_results[0].completed = result.completed;
  result.node_results[0].cold_starts = result.cold_starts;
  result.node_results[0].peak_queue = result.peak_queue;

  if (!latencies.empty()) {
    result.mean_ms = mean_of(latencies);
    const Cdf cdf(latencies);  // one sort for all three quantiles
    result.p50_ms = cdf.quantile(0.50);
    result.p95_ms = cdf.quantile(0.95);
    result.p99_ms = cdf.quantile(0.99);
  }
  // Streaming accumulator in completion order (deterministic: virtual
  // time), merged across seeds by run_batch.
  for (double latency : latencies) result.latency_stats.add(latency);
  const TimeMs span = std::max(last_event, config_.horizon_ms);
  result.achieved_rps =
      span > 0.0 ? static_cast<double>(result.completed) / (span / 1000.0)
                 : 0.0;
  result.mean_busy_instances = span > 0.0 ? busy_area / span : 0.0;
  if (metrics) {
    metrics->gauge("cluster.peak_instances")
        .set(static_cast<double>(result.peak_instances));
  }
  CHIRON_LOG(kDebug) << "cluster sim: " << result.completed << "/"
                     << result.offered << " requests, "
                     << result.cold_starts << " cold starts, "
                     << result.failed << " faults, " << result.retried
                     << " retries, " << result.timed_out << " timeouts, "
                     << result.dropped << " drops, peak queue "
                     << result.peak_queue;
  return result;
}

std::vector<ScenarioOutcome> ClusterSimulator::run_batch(
    const std::vector<ScenarioSpec>& specs,
    const std::vector<std::uint64_t>& seeds, const RuntimeParams& params,
    std::size_t threads) {
  // Per-(spec, seed) job, prepared sequentially in spec-major order so the
  // arrival processes and the global request-id blocks are minted in a
  // deterministic sequence regardless of how the runs are later scheduled.
  struct Job {
    ClusterConfig config;
    const Backend* backend = nullptr;
    std::size_t stages = 1;
    std::vector<TimeMs> arrivals;
    std::uint64_t id_base = 0;
  };
  std::vector<Job> jobs;
  jobs.reserve(specs.size() * std::max<std::size_t>(1, seeds.size()));
  for (const ScenarioSpec& spec : specs) {
    const std::vector<std::uint64_t> spec_seeds =
        seeds.empty() ? std::vector<std::uint64_t>{spec.config.seed} : seeds;
    for (const std::uint64_t seed : spec_seeds) {
      Job job;
      job.config = spec.config;
      job.config.seed = seed;
      job.backend = spec.backend;
      job.stages = spec.cascading_stages;
      Rng rng(seed);
      ArrivalGenerator arrivals(job.config.arrivals, job.config.offered_rps,
                                rng.split());
      job.arrivals = arrivals.generate(job.config.horizon_ms);
      job.id_base = obs::mint_request_ids(job.arrivals.size());
      jobs.push_back(std::move(job));
    }
  }

  // Independent deterministic runs: each gets its own simulator (and with
  // it event queue, FaultInjector, Rng streams, and latency accumulator).
  // fork_join returns results in job order whatever the thread count.
  std::vector<ClusterResult> results =
      fork_join(threads, jobs.size(), [&](std::size_t j) {
        const Job& job = jobs[j];
        const ClusterSimulator sim(job.config, params);
        return sim.run_prepared(*job.backend, job.stages, job.arrivals,
                                job.id_base);
      });

  // Fold per-seed results into per-scenario outcomes.
  std::vector<ScenarioOutcome> outcomes;
  outcomes.reserve(specs.size());
  std::size_t j = 0;
  for (const ScenarioSpec& spec : specs) {
    ScenarioOutcome outcome;
    outcome.name = spec.name;
    outcome.seeds =
        seeds.empty() ? std::vector<std::uint64_t>{spec.config.seed} : seeds;
    for (std::size_t k = 0; k < outcome.seeds.size(); ++k, ++j) {
      ClusterResult& r = results[j];
      outcome.latency_ms.merge(r.latency_stats);
      outcome.achieved_rps.add(r.achieved_rps);
      outcome.offered += r.offered;
      outcome.completed += r.completed;
      outcome.cold_starts += r.cold_starts;
      outcome.timed_out += r.timed_out;
      outcome.dropped += r.dropped;
      outcome.runs.push_back(std::move(r));
    }
    outcomes.push_back(std::move(outcome));
  }
  return outcomes;
}

}  // namespace chiron

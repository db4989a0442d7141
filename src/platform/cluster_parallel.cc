// Windowed conservative-PDES engine behind ClusterSimulator::run_prepared
// at every node count.
//
// Every node owns a full serving shard — typed event heap, monotone warm
// ring, tombstoned waiting queue, constant-delay timeout ring — and
// advances it inside left-closed time windows [B, B'). The window width
// is the minimum cross-node latency: a re-routed retry generated at
// t_fail inside the window cannot re-dispatch before t_fail + the retry
// backoff floor, so with width <= floor every cross-node event lands at
// or after the next barrier. At each barrier a single coordinator owns
// all state: it drains per-node outboxes, routes pending dispatches
// (arrivals + transferred retries + crash requeues) in one global
// (time, kind, id) order against a RouterSnapshot, processes node
// crashes (whose times are known statically, so windows are cut at
// them), and k-way merges the per-node delta logs into the global
// accounting (peak_instances, peak_queue, latency fold) in (time, node)
// order.
//
// Determinism: nothing in the schedule depends on the worker count —
// node->worker assignment is fixed, every cross-shard interaction
// happens in coordinator-defined order, per-node Rng streams are split
// at setup, and the merged accounting order is (time, node). The
// sim_threads == 1 execution IS the engine's sequential semantics;
// 2/4/8 threads replay it bit-for-bit (ShardedParallelParityTest).
// Only windows whose routed batch reaches kFanOutMinDispatches are handed
// to the workers; narrower ones run inline on the coordinator, so extra
// threads never pay a barrier that costs more than the window's work.
//
// Stateless policies (round_robin, random) never read node state, so a
// fault-free run needs no intermediate barrier at all: one window spans
// the whole horizon and the shards run embarrassingly parallel.
// Stateful policies (least_outstanding, power_of_two, warm_affinity)
// route against per-node in-flight/warm snapshots republished at every
// barrier, so their windows are additionally capped at a fixed fidelity
// width.
//
// One node is the degenerate case: nothing is routed and nothing crosses
// shards. The shard reads arrivals straight off the sorted arrival
// cursor, keeps its retries on its own heap as kRetry events, and folds
// each accounting delta directly into the totals (the (time, node) merge
// of a single log is the log itself), so the run is one window unless a
// node crash cuts it. It draws service times from the service root
// stream itself — the closure reference loop's schedule, which
// ClusterParityTest asserts bit-for-bit.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <future>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/thread_pool.h"
#include "fault/fault.h"
#include "metrics/stats.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"
#include "platform/cluster.h"
#include "platform/cluster_internal.h"
#include "platform/router.h"
#include "sim/event_queue.h"
#include "sim/ring.h"
#include "sim/shard.h"

namespace chiron {
namespace cluster_detail {
namespace {

/// A shard heap's typed POD event: the whole per-request state machine
/// dispatches on {kind, request id} — no per-event closures. kRetry
/// enters a heap only in a one-node run; with more nodes, retries
/// re-route through the coordinator.
struct ClusterEvent {
  enum class Kind : std::uint8_t {
    kTimeout,
    kCompletion,
    kCrash,
    kRetry,
  };
  Kind kind = Kind::kCompletion;
  std::uint32_t id = 0;
};

using ClusterEventQueue = TypedEventQueue<ClusterEvent>;

constexpr TimeMs kInf = std::numeric_limits<TimeMs>::infinity();
/// Sentinel node index: the request's timeout is in flight between nodes
/// (its origin-side ring entry is a tombstone; the destination re-arms a
/// heap timeout at delivery).
constexpr std::uint32_t kTimeoutInFlight = 0xFFFFFFFFu;
/// Node of an event no node owns yet (admission); the recorder reads it
/// as node -1.
constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;
/// Fidelity cap for stateful-router windows: snapshots are republished
/// at least this often in simulated time.
constexpr TimeMs kStatefulWindowMs = 10.0;
/// Lower bound on the window width so a jitter >= 1 config (backoff
/// floor 0) cannot degenerate into infinitely many windows. Transfers
/// landing inside the current window are delivered at the next barrier
/// (clamped), which stays deterministic.
constexpr TimeMs kMinWindowMs = 0.25;
/// Smallest routed batch worth handing to the window workers. Opening
/// and draining the barrier costs ~35–55 µs of condvar round trip per
/// window, an inline dispatch ~0.7 µs, so narrower windows run inline on
/// the coordinator. The rule reads only the window's routed batch, never
/// the thread count, so which windows fan out is a function of the
/// config (cluster.sim.fanout_windows counts them at every sim_threads).
constexpr std::size_t kFanOutMinDispatches = 256;

struct TimeoutEntry {
  TimeMs at;
  std::uint64_t seq;
  std::uint32_t id;
};

/// Cross-node dispatch handed to the coordinator: a re-routed retry (from
/// a worker outbox or a crash victim) waiting for the barrier of the
/// window containing `at`.
struct Transfer {
  TimeMs at;
  std::uint32_t id;
};

/// One routed dispatch delivered into a shard's window inbox.
struct InboxEntry {
  TimeMs at;
  std::uint32_t id;
  /// kNew: first dispatch (record admission, arm the ring timeout).
  /// kRedispatch: transferred retry or crash requeue (re-arm the heap
  /// timeout at the request's deadline).
  enum class Kind : std::uint8_t { kNew, kRedispatch } kind;
};

/// Per-node accounting delta, merged across shards at barriers in
/// (time, node) order so the global trajectory (live instances, queue
/// depth, latency fold) replays one canonical sequential order.
struct LogEntry {
  TimeMs at;
  double value;  ///< latency for kLatency; unused otherwise
  enum class Kind : std::uint8_t {
    kLiveUp,    ///< cold start brought an instance up (peak sample point)
    kLiveDown,  ///< reap or sandbox crash took an instance down
    kQueueUp,   ///< request queued (peak sample point)
    kQueueDown, ///< request dequeued or timed out while queued
    kLatency,   ///< completion: value = e2e latency
  } kind;
};

/// The fault kinds the engine injects, in publication order.
constexpr FaultKind kInjectedFaults[] = {
    FaultKind::kColdStart, FaultKind::kCrash, FaultKind::kStraggler,
    FaultKind::kNodeCrash};

/// Counters a worker accumulates privately; summed (integers — order
/// free) into ClusterResult and the metric sinks at teardown.
struct Tally {
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t retried = 0;
  std::size_t timed_out = 0;
  std::size_t dropped = 0;
  std::size_t cold_starts = 0;
  /// Injected faults, indexed by FaultKind.
  std::array<std::size_t, static_cast<std::size_t>(FaultKind::kNodeCrash) + 1>
      faults{};

  void fold(const Tally& t) {
    completed += t.completed;
    failed += t.failed;
    retried += t.retried;
    timed_out += t.timed_out;
    dropped += t.dropped;
    cold_starts += t.cold_starts;
    for (std::size_t i = 0; i < faults.size(); ++i) faults[i] += t.faults[i];
  }
};

/// Per-request state, one per request for the whole run — so it is kept
/// at 40 bytes (pinned below): no stored deadline, one-byte fields packed
/// together.
struct ReqState {
  TimeMs arrival = 0.0;  ///< the timeout deadline is arrival + timeout_ms
  std::uint32_t attempt = 1;
  std::uint32_t node = 0;          ///< where the current attempt lives
  std::uint32_t timeout_node = 0;  ///< shard owning the armed timeout
  ClusterEventQueue::Handle pending_ev{};
  ClusterEventQueue::Handle timeout_ev{};
  enum class Phase : std::uint8_t {
    kWaiting,
    kQueued,
    kRunning,
    kBackoff,
    kDone,
  } phase = Phase::kWaiting;
  bool has_timeout_ev = false;
  bool timeout_via_ring = false;
  /// True while the arrival shard's timeout ring holds a live entry for
  /// this request. Written ONLY by that shard's worker (arm, ring fire,
  /// local disarm, transfer-out) or by the coordinator at barriers —
  /// never by the shard a transferred request moved to — so
  /// prune_timeout_ring can test staleness without racing the new
  /// owner's timeout bookkeeping (has_timeout_ev & co above).
  bool ring_live = false;
};
static_assert(sizeof(ReqState) == 40, "ReqState grew: one per request");

/// One node's complete serving shard. Workers own disjoint shard sets
/// during a window; the coordinator owns everything at barriers (the
/// WindowBarrier mutex provides the happens-before edges).
struct Shard {
  std::uint32_t k = 0;
  Ring<TimeMs> warm;
  Ring<std::uint32_t> queue;
  std::size_t live = 0;
  std::size_t busy = 0;
  std::size_t queued_live = 0;
  std::size_t peak_queue = 0;  ///< peak of queued_live (NodeResult)
  ClusterEventQueue events;
  Ring<TimeoutEntry> timeout_ring;
  std::vector<InboxEntry> inbox;
  std::size_t inbox_cursor = 0;
  /// Cross-node transfers this window: the owning worker appends, the
  /// coordinator drains at the barrier (handoff ordered by its mutex).
  std::vector<Transfer> outbox;
  std::vector<LogEntry> log;
  double busy_area = 0.0;
  TimeMs last_event = 0.0;
  TimeMs next_at = kInf;  ///< earliest local event after the last window
  Rng rng{0};             ///< per-node service-time stream
  Tally tally;
  std::size_t routed = 0;
};

}  // namespace

ClusterResult run_prepared_windowed(const ClusterConfig& config,
                                    const RuntimeParams& params,
                                    const Backend& backend,
                                    std::size_t cascading_stages,
                                    const std::vector<TimeMs>& arrival_times,
                                    std::uint64_t id_base) {
  // The arrival cursor reads the stream in order, so it must be sorted
  // (ArrivalGenerator::generate's output is).
  if (!std::is_sorted(arrival_times.begin(), arrival_times.end())) {
    throw std::invalid_argument(
        "ClusterSimulator::run_prepared: arrival_times must be sorted");
  }
  const std::uint32_t node_count = static_cast<std::uint32_t>(config.nodes);
  const bool solo = node_count == 1;
  const std::size_t per_node_capacity =
      node_capacity(backend.resources(), params);
  const std::size_t n = arrival_times.size();

  // Seeded stream plan, as run() threads it: the first split fed the
  // arrival generator, the second roots the service streams, the third
  // seeds the router. Per-node service streams are further splits of the
  // service root, taken in node order at setup — fixed for every thread
  // count. A lone node draws from the root itself, as the reference does.
  Rng rng(config.seed);
  (void)rng.split();
  Rng service_root = rng.split();
  Router router(config.router, node_count, rng.split());

  const FaultInjector injector(config.faults);
  const RetryPolicy& retry = config.retry;
  const bool has_timeout = retry.timeout_ms > 0.0;
  const TimeMs cold_penalty = cold_start_penalty(params, cascading_stages);
  auto deadline_of = [&](const ReqState& r) {
    return r.arrival + retry.timeout_ms;
  };

  // Mode derivation — a pure function of the config, never of the thread
  // count (the parity anchor). Retries can cross nodes only when an
  // attempt can actually fail with attempts to spare; node crashes
  // always transfer (queue drains re-route) but their times are known
  // statically, so they cut windows rather than bound the width. A lone
  // node transfers nothing and never consults the router.
  const bool attempts_can_fail = config.faults.cold_start_failure > 0.0 ||
                                 config.faults.crash > 0.0 ||
                                 config.faults.node_crash > 0.0;
  const bool retries = retry.max_attempts > 1 && attempts_can_fail;
  const bool retry_transfers = !solo && retries;
  const bool stateful_router =
      !solo && (config.router == RouterPolicy::kLeastOutstanding ||
                config.router == RouterPolicy::kPowerOfTwo ||
                config.router == RouterPolicy::kWarmAffinity);
  TimeMs width = kInf;
  if (retry_transfers) {
    // Backoff floor: the smallest backoff any retry can draw is
    // min(base, max) * (1 - jitter) (attempt 1, worst-case jitter).
    const TimeMs floor_ms =
        std::min(retry.base_backoff_ms, retry.max_backoff_ms) *
        (1.0 - retry.jitter);
    width = std::min(width, std::max(kMinWindowMs, floor_ms));
  }
  if (stateful_router) width = std::min(width, kStatefulWindowMs);
  const bool single_window = !std::isfinite(width) &&
                             !(config.faults.node_crash > 0.0);

  ClusterResult result;
  result.offered = n;
  result.request_id_base = id_base;
  result.node_results.resize(node_count);

  // Observability sinks (simulated timestamps throughout). Tracer and
  // recorder are thread-safe and written live, by workers too, through
  // note(); registry metrics are published once at teardown from the
  // engine's own state, so their final values are deterministic and
  // match ClusterResult.
  obs::Tracer* tracer =
      config.tracer && config.tracer->enabled() ? config.tracer : nullptr;
  const int request_track =
      tracer ? tracer->new_track("cluster.requests", obs::kVirtualPid) : 0;
  obs::FlightRecorder* recorder =
      config.recorder && config.recorder->enabled() ? config.recorder
                                                    : nullptr;
  auto rid = [id_base](std::uint64_t id) { return id_base + id; };

  // The one path from a request event to the sinks: the recorder record,
  // and the trace event drawn from the same kind. A terminal kind
  // (complete, timeout, drop) also closes the request's async span.
  auto note = [&](obs::RecKind kind, std::uint32_t id, std::uint32_t attempt,
                  TimeMs at, double value, std::uint32_t node) {
    if (recorder) {
      recorder->record(kind, rid(id), attempt, at, value,
                       static_cast<std::int32_t>(node));
    }
    if (!tracer) return;
    const double request = static_cast<double>(rid(id));
    switch (kind) {
      case obs::RecKind::kAdmit:
        tracer->async_begin_at("request", "sim", obs::kVirtualPid,
                               request_track, at, rid(id));
        return;
      case obs::RecKind::kColdStart:
        tracer->instant_at("cluster.cold_start", "sim", obs::kVirtualPid,
                           request_track, at,
                           {{"request", request},
                            {"node", static_cast<double>(node)}});
        return;
      case obs::RecKind::kFaultColdStart:
      case obs::RecKind::kFaultCrash:
      case obs::RecKind::kFaultStraggler:
      case obs::RecKind::kNodeCrash:
        tracer->instant_at(kind == obs::RecKind::kNodeCrash
                               ? "fault.node_crash"
                               : obs::to_string(kind),
                           "fault", obs::kVirtualPid, request_track, at,
                           {{"request", request},
                            {"attempt", static_cast<double>(attempt)}});
        return;
      case obs::RecKind::kRetryBackoff:
        tracer->complete_at("retry.backoff", "fault", obs::kVirtualPid,
                            request_track, at, value,
                            {{"attempt", static_cast<double>(attempt)},
                             {"request", request}});
        return;
      case obs::RecKind::kTimeout:
        tracer->instant_at("request.timeout", "fault", obs::kVirtualPid,
                           request_track, at, {{"request", request}});
        break;
      case obs::RecKind::kComplete:
      case obs::RecKind::kDrop:
        break;
      default:  // kQueue, kServiceBegin: recorder only
        return;
    }
    tracer->async_end_at("request", "sim", obs::kVirtualPid, request_track,
                         at, rid(id));
  };

  std::vector<ReqState> reqs(n);
  for (std::size_t i = 0; i < n; ++i) reqs[i].arrival = arrival_times[i];

  // Statically-known node crash schedule, sorted by (time, node): each
  // crash is a window cut processed by the coordinator at its barrier.
  struct CrashPoint {
    TimeMs at;
    std::uint32_t k;
  };
  std::vector<CrashPoint> crashes;
  if (config.faults.node_crash > 0.0) {
    crashes.reserve(node_count);
    for (std::uint32_t k = 0; k < node_count; ++k) {
      if (!injector.node_crashes(k)) continue;
      crashes.push_back(
          CrashPoint{config.horizon_ms * injector.node_crash_frac(k), k});
    }
    std::sort(crashes.begin(), crashes.end(),
              [](const CrashPoint& a, const CrashPoint& b) {
                return a.at != b.at ? a.at < b.at : a.k < b.k;
              });
  }

  // Shard sizing. Per-node reservations scale with the node's share of
  // the request stream (with 4x headroom for routing skew) so steady
  // state stays allocation-free; a pathologically skewed run grows a
  // ring or vector — correct, just no longer allocation-free.
  const std::size_t share = n / node_count + 1;
  const bool transfers_possible =
      !solo && (retries || config.faults.node_crash > 0.0);
  std::vector<Shard> shards(node_count);
  for (std::uint32_t k = 0; k < node_count; ++k) {
    Shard& s = shards[k];
    s.k = k;
    s.rng = solo ? service_root : service_root.split();
    s.warm.reserve(std::min(per_node_capacity, n) + 1);
    s.queue.reserve(std::min(n, 4 * share + 64) + 1);
    if (has_timeout) s.timeout_ring.reserve(std::min(n, 4 * share + 64) + 1);
    // Live heap events: completions/crashes (<= busy <= capacity) plus
    // heap timeouts and retries (<= requests resident on the node).
    const std::size_t ev_slots =
        retries || config.faults.node_crash > 0.0 || has_timeout
            ? std::min(2 * n + 8, 6 * share + 2 * per_node_capacity + 64)
            : per_node_capacity + 16;
    s.events.reserve(ev_slots, 2 * ev_slots + 16);
    if (!solo && !single_window) {
      s.inbox.reserve(std::min(n, 4 * share + 64));
      s.log.reserve(std::min(5 * n, 10 * share + 64));
    }
    if (transfers_possible) s.outbox.reserve(std::min(n, 2 * share + 64));
  }

  // Coordinator state.
  std::vector<Transfer> pending;  ///< undelivered cross-node dispatches
  if (transfers_possible) pending.reserve(n);
  std::vector<double> latencies;
  latencies.reserve(n);
  RouterSnapshot snapshot(node_count);
  std::vector<std::size_t> merge_cursor(node_count, 0);
  Tally coord;  ///< crash-path and late-timeout counters

  // Global running aggregates, advanced only at barriers (merged logs)
  // and by coordinator-side crash processing — one canonical order.
  std::size_t live_now = 0;
  std::size_t queued_now = 0;
  TimeMs coord_last = 0.0;
  std::size_t window_count = 0;
  std::size_t fanout_windows = 0;
  std::size_t transfer_count = 0;
  std::size_t barrier_routed = 0;
  std::uint32_t next_arrival = 0;  ///< arrival cursor: the next id

  // Folds one accounting delta into the global trajectory: peaks are
  // sampled at their only increase points (kLiveUp / kQueueUp), and
  // latencies fold in canonical order.
  auto fold = [&](TimeMs at, LogEntry::Kind kind, double value) {
    switch (kind) {
      case LogEntry::Kind::kLiveUp:
        ++live_now;
        result.peak_instances = std::max(result.peak_instances, live_now);
        return;
      case LogEntry::Kind::kLiveDown:
        --live_now;
        return;
      case LogEntry::Kind::kQueueUp:
        ++queued_now;
        result.peak_queue = std::max(result.peak_queue, queued_now);
        break;
      case LogEntry::Kind::kQueueDown:
        --queued_now;
        break;
      case LogEntry::Kind::kLatency:
        latencies.push_back(value);
        return;
    }
    if (tracer) {
      tracer->counter_at("cluster.queue_depth",
                         static_cast<double>(queued_now), obs::kVirtualPid, 0,
                         at);
    }
  };

  // ---- shared handlers (called by workers inside windows for their own
  // shards, and by the coordinator at barriers for any shard) ----

  // Multi-node shards log their deltas for the (time, node) merge at the
  // next barrier; a lone shard's log already is that order, so its
  // deltas fold as they happen.
  auto log_entry = [&](Shard& s, TimeMs at, LogEntry::Kind kind,
                       double value = 0.0) {
    if (solo) {
      fold(at, kind, value);
    } else {
      s.log.push_back(LogEntry{at, value, kind});
    }
  };

  auto account = [](Shard& s, TimeMs now) {
    s.busy_area += static_cast<double>(s.busy) * (now - s.last_event);
    s.last_event = now;
  };

  auto reap_node = [&](Shard& s, TimeMs now) {
    while (!s.warm.empty() &&
           now - s.warm.front() >= config.keep_alive_ms) {
      s.warm.pop_front();
      --s.live;
      log_entry(s, now, LogEntry::Kind::kLiveDown);
    }
  };

  auto count_fault = [&](Shard& s, FaultKind kind, std::uint32_t id,
                         std::uint32_t attempt, TimeMs now,
                         double value = 0.0) {
    ++s.tally.faults[static_cast<std::size_t>(kind)];
    note(rec_kind(kind), id, attempt, now, value, reqs[id].node);
  };

  // Disarms the timeout `r` holds, seen from shard `s` (which must own
  // it, or it is a ring entry turning into a lazy tombstone).
  auto disarm_timeout = [&](Shard& s, ReqState& r) {
    if (r.timeout_via_ring) {
      r.ring_live = false;  // via_ring implies s owns the ring entry
    } else if (r.timeout_node == s.k) {
      s.events.cancel(r.timeout_ev);
    }
  };

  // Hands `r`'s armed timeout to a cross-node transfer: it leaves `s`
  // and the destination re-arms it at delivery.
  auto transfer_timeout = [&](Shard& s, ReqState& r) {
    if (!r.has_timeout_ev) return;
    disarm_timeout(s, r);
    r.timeout_node = kTimeoutInFlight;
    r.timeout_via_ring = false;
  };

  // Disarms `id`'s timeout from shard `s` and marks the request done.
  auto finalize = [&](Shard& s, std::uint32_t id) {
    ReqState& r = reqs[id];
    r.phase = ReqState::Phase::kDone;
    if (r.has_timeout_ev) disarm_timeout(s, r);
    r.has_timeout_ev = false;
  };

  auto take_queued = [&](Shard& s) -> std::optional<std::uint32_t> {
    while (!s.queue.empty()) {
      const std::uint32_t id = s.queue.pop_front();
      if (reqs[id].phase == ReqState::Phase::kQueued) {
        --s.queued_live;
        return id;
      }
    }
    return std::nullopt;
  };

  // Handles one failed attempt at `t` on shard `s`. A surviving retry
  // becomes a cross-node transfer via `sink` (the worker's outbox or the
  // coordinator's pending list) — unless its deadline lands at or before
  // the re-dispatch time, in which case the still-armed timeout fires
  // first and the retry is never delivered (the reference loop's
  // timeout-cancels-retry order). A lone node keeps the retry on its own
  // heap, where a timeout that fires first cancels it.
  auto fail_attempt = [&](Shard& s, std::uint32_t id, TimeMs t,
                          TimeMs extra_delay, Tally& tally, auto&& sink) {
    ReqState& r = reqs[id];
    ++tally.failed;
    if (r.attempt < retry.max_attempts) {
      ++tally.retried;
      const TimeMs backoff = injector.retry_backoff_ms(retry, r.attempt, id);
      note(obs::RecKind::kRetryBackoff, id, r.attempt, t,
           extra_delay + backoff, r.node);
      ++r.attempt;
      r.phase = ReqState::Phase::kBackoff;
      const TimeMs t_retry = t + extra_delay + backoff;
      if (solo) {
        r.pending_ev = s.events.schedule(
            t_retry, ClusterEvent{ClusterEvent::Kind::kRetry, id});
      } else if (r.has_timeout_ev && deadline_of(r) <= t_retry) {
        // The timeout wins: leave it armed where it is; no transfer.
      } else {
        transfer_timeout(s, r);
        sink(Transfer{t_retry, id});
      }
    } else {
      ++tally.dropped;
      note(obs::RecKind::kDrop, id, r.attempt, t, 0.0, r.node);
      finalize(s, id);
    }
  };

  auto begin_service = [&](Shard& s, std::uint32_t id, TimeMs now,
                           TimeMs startup) {
    ReqState& r = reqs[id];
    r.phase = ReqState::Phase::kRunning;
    ++s.busy;
    TimeMs service = backend.run(s.rng).e2e_latency_ms;
    if (injector.straggles(id, r.attempt)) {
      service *= config.faults.straggler_multiplier;
      count_fault(s, FaultKind::kStraggler, id, r.attempt, now,
                  config.faults.straggler_multiplier);
    }
    note(obs::RecKind::kServiceBegin, id, r.attempt, now, service, s.k);
    if (injector.crashes(id, r.attempt)) {
      const TimeMs crash_at =
          now + startup + service * config.faults.crash_point;
      r.pending_ev = s.events.schedule(
          crash_at, ClusterEvent{ClusterEvent::Kind::kCrash, id});
      return;
    }
    const TimeMs finish = now + startup + service;
    r.pending_ev = s.events.schedule(
        finish, ClusterEvent{ClusterEvent::Kind::kCompletion, id});
  };

  // Places `id` on shard `s` at `now` — routing already decided at the
  // barrier: warm reuse, cold start if the node has headroom, else the
  // node's queue.
  auto dispatch_to = [&](Shard& s, std::uint32_t id, TimeMs now,
                         Tally& tally, auto&& sink) {
    account(s, now);
    reap_node(s, now);
    ReqState& r = reqs[id];
    r.node = s.k;
    ++s.routed;
    if (!s.warm.empty()) {
      s.warm.pop_back();  // LIFO keeps hot instances hot
      begin_service(s, id, now, 0.0);
    } else if (s.live < per_node_capacity) {
      if (injector.cold_start_fails(id, r.attempt)) {
        // The sandbox dies during boot: the boot time is still paid (it
        // delays the retry) but no instance comes up.
        count_fault(s, FaultKind::kColdStart, id, r.attempt, now,
                    cold_penalty);
        fail_attempt(s, id, now, cold_penalty, tally, sink);
        return;
      }
      ++s.live;
      log_entry(s, now, LogEntry::Kind::kLiveUp);
      ++s.tally.cold_starts;
      note(obs::RecKind::kColdStart, id, r.attempt, now, cold_penalty, s.k);
      begin_service(s, id, now, cold_penalty);
    } else {
      r.phase = ReqState::Phase::kQueued;
      s.queue.push_back(id);
      ++s.queued_live;
      s.peak_queue = std::max(s.peak_queue, s.queued_live);
      log_entry(s, now, LogEntry::Kind::kQueueUp);
      note(obs::RecKind::kQueue, id, r.attempt, now,
           static_cast<double>(s.queued_live), s.k);
    }
  };

  // Frees the instance that just finished/aborted on `s`: hand it to the
  // next queued request directly, or park it in the warm pool.
  auto release_instance = [&](Shard& s, TimeMs at) {
    if (const auto qid = take_queued(s)) {
      log_entry(s, at, LogEntry::Kind::kQueueDown);
      // Handed to the queued request directly (it stays on its node): it
      // never visits the warm pool, so reap cannot reclaim it out from
      // under the handoff.
      reap_node(s, at);
      begin_service(s, *qid, at, 0.0);
    } else {
      s.warm.push_back(at);
    }
  };

  auto handle_timeout = [&](Shard& s, std::uint32_t id, TimeMs at,
                            Tally& tally) {
    ReqState& r = reqs[id];
    if (r.timeout_via_ring) r.ring_live = false;  // fired from s's own ring
    r.has_timeout_ev = false;
    ++tally.timed_out;
    note(obs::RecKind::kTimeout, id, r.attempt, at, 0.0, r.node);
    switch (r.phase) {
      case ReqState::Phase::kQueued: {
        // Lazy tombstone: the queue entry stays behind and take_queued
        // skips it; only the live counters move.
        --s.queued_live;
        log_entry(s, at, LogEntry::Kind::kQueueDown);
        break;
      }
      case ReqState::Phase::kRunning: {
        // The platform aborts the handler but keeps the sandbox.
        s.events.cancel(r.pending_ev);
        account(s, at);
        --s.busy;
        release_instance(s, at);
        break;
      }
      case ReqState::Phase::kBackoff:
        // A lone node cancels the retry on its heap. Otherwise the retry
        // is an undelivered transfer (or was never sunk); the coordinator
        // checks deadlines before delivery, so nothing is armed here.
        if (solo) s.events.cancel(r.pending_ev);
        break;
      default:
        break;
    }
    r.phase = ReqState::Phase::kDone;
  };

  auto handle_completion = [&](Shard& s, std::uint32_t id, TimeMs at,
                               Tally& tally) {
    account(s, at);
    ReqState& r = reqs[id];
    --s.busy;
    const TimeMs latency = at - r.arrival;
    log_entry(s, at, LogEntry::Kind::kLatency, latency);
    ++tally.completed;
    note(obs::RecKind::kComplete, id, r.attempt, at, latency, s.k);
    finalize(s, id);
    release_instance(s, at);
  };

  auto handle_crash = [&](Shard& s, std::uint32_t id, TimeMs at,
                          Tally& tally, auto&& sink) {
    account(s, at);
    ReqState& r = reqs[id];
    --s.busy;
    --s.live;  // the crash takes the sandbox with it
    log_entry(s, at, LogEntry::Kind::kLiveDown);
    count_fault(s, FaultKind::kCrash, id, r.attempt, at);
    fail_attempt(s, id, at, 0.0, tally, sink);
    // The crash freed a slot on this node: a queued request can now
    // cold-start here (no re-route; the queue is node-local).
    if (const auto qid = take_queued(s)) {
      log_entry(s, at, LogEntry::Kind::kQueueDown);
      dispatch_to(s, *qid, at, tally, sink);
    }
  };

  auto handle_inbox = [&](Shard& s, const InboxEntry& e, Tally& tally,
                          auto&& sink) {
    ReqState& r = reqs[e.id];
    s.events.advance_to(e.at);
    if (e.kind == InboxEntry::Kind::kNew) {
      note(obs::RecKind::kAdmit, e.id, 1, e.at, 0.0, kNoNode);
      if (has_timeout) {
        r.has_timeout_ev = true;
        r.timeout_via_ring = true;
        r.ring_live = true;
        r.timeout_node = s.k;
        s.timeout_ring.push_back(
            TimeoutEntry{deadline_of(r), s.events.mint_seq(), e.id});
      }
    } else if (r.has_timeout_ev && r.timeout_node == kTimeoutInFlight) {
      // The timeout travelled with the transfer: re-arm it here FIRST so
      // its seq precedes any event of the re-dispatched attempt —
      // timeout still wins ties at the deadline.
      r.timeout_via_ring = false;
      r.timeout_node = s.k;
      r.timeout_ev = s.events.schedule(
          deadline_of(r), ClusterEvent{ClusterEvent::Kind::kTimeout, e.id});
    }
    dispatch_to(s, e.id, e.at, tally, sink);
  };

  // True while the timeout ring's front entry is a tombstone (fired,
  // finalized, or transferred away).
  auto prune_timeout_ring = [&](Shard& s) {
    while (!s.timeout_ring.empty()) {
      // ring_live is the ONLY ReqState field read here: the request may
      // have transferred to another node whose worker is concurrently
      // rewriting its timeout bookkeeping, but ring_live is written
      // exclusively by this shard (or the coordinator at a barrier,
      // which orders against this read via the window mutex).
      if (reqs[s.timeout_ring.front().id].ring_live) return;
      s.timeout_ring.pop_front();
    }
  };

  // Runs shard `s` through its window [.., window_end): dispatches (the
  // routed inbox, all < window_end by construction — or, on a lone node,
  // the arrival cursor), ring timeouts, and heap events merged with
  // dispatch-wins-ties and ring-vs-heap (time, seq) order — the
  // reference loop's event order, per shard.
  auto process_window = [&](Shard& s, TimeMs window_end) {
    auto sink = [&s](const Transfer& t) { s.outbox.push_back(t); };
    Tally& tally = s.tally;
    for (;;) {
      prune_timeout_ring(s);
      TimeMs inbox_at = kInf;
      if (solo) {
        if (next_arrival < n && arrival_times[next_arrival] < window_end) {
          inbox_at = arrival_times[next_arrival];
        }
      } else if (s.inbox_cursor < s.inbox.size()) {
        inbox_at = s.inbox[s.inbox_cursor].at;
      }
      TimeMs ring_at = kInf;
      std::uint64_t ring_seq = 0;
      if (!s.timeout_ring.empty() && s.timeout_ring.front().at < window_end) {
        ring_at = s.timeout_ring.front().at;
        ring_seq = s.timeout_ring.front().seq;
      }
      TimeMs heap_at = kInf;
      std::uint64_t heap_seq = 0;
      {
        TimeMs at;
        std::uint64_t seq;
        if (s.events.peek(&at, &seq) && at < window_end) {
          heap_at = at;
          heap_seq = seq;
        }
      }
      if (inbox_at < kInf && inbox_at <= ring_at && inbox_at <= heap_at) {
        const InboxEntry e =
            solo ? InboxEntry{inbox_at, next_arrival++,
                              InboxEntry::Kind::kNew}
                 : s.inbox[s.inbox_cursor++];
        handle_inbox(s, e, tally, sink);
        continue;
      }
      if (ring_at < heap_at || (ring_at == heap_at && ring_seq < heap_seq)) {
        if (!std::isfinite(ring_at)) break;
        const TimeoutEntry front = s.timeout_ring.front();
        s.timeout_ring.pop_front();
        s.events.advance_to(front.at);
        handle_timeout(s, front.id, front.at, tally);
        continue;
      }
      if (!std::isfinite(heap_at)) break;
      TimeMs at = 0.0;
      ClusterEvent ev;
      s.events.pop(&at, &ev);
      switch (ev.kind) {
        case ClusterEvent::Kind::kCompletion:
          handle_completion(s, ev.id, at, tally);
          break;
        case ClusterEvent::Kind::kCrash:
          handle_crash(s, ev.id, at, tally, sink);
          break;
        case ClusterEvent::Kind::kTimeout:
          handle_timeout(s, ev.id, at, tally);
          break;
        case ClusterEvent::Kind::kRetry:  // lone node: re-dispatch here
          dispatch_to(s, ev.id, at, tally, sink);
          break;
      }
    }
    s.inbox.clear();
    s.inbox_cursor = 0;
    // Publish the earliest remaining local event for the coordinator's
    // idle-window jump.
    prune_timeout_ring(s);
    s.next_at = kInf;
    if (!s.timeout_ring.empty()) s.next_at = s.timeout_ring.front().at;
    TimeMs at;
    if (s.events.peek(&at) && at < s.next_at) s.next_at = at;
  };

  // ---- coordinator: routing, crashes, merging ----

  auto coord_sink = [&](const Transfer& t) { pending.push_back(t); };

  // Routes one dispatch at barrier time against the published snapshot.
  auto route_one = [&](std::uint32_t id, TimeMs at, InboxEntry::Kind kind) {
    ReqState& r = reqs[id];
    const TimeMs deadline = deadline_of(r);
    if (kind == InboxEntry::Kind::kRedispatch && r.has_timeout_ev &&
        deadline <= at) {
      // The transfer was clamped past its deadline (possible only with a
      // jitter-degenerate backoff floor): the request times out at its
      // deadline instead of re-dispatching.
      r.has_timeout_ev = false;
      ++coord.timed_out;
      note(obs::RecKind::kTimeout, id, r.attempt, deadline, 0.0, r.node);
      r.phase = ReqState::Phase::kDone;
      coord_last = std::max(coord_last, deadline);
      return;
    }
    const std::uint32_t k = router.pick(snapshot.data(), node_count);
    snapshot.apply_pick(k);
    shards[k].inbox.push_back(InboxEntry{at, id, kind});
    ++barrier_routed;
    if (kind == InboxEntry::Kind::kRedispatch) ++transfer_count;
  };

  // Publishes every node's view for a barrier batch. Stateless policies
  // never read the views, so the (reap + publish) pass is skipped and
  // reaping happens lazily at dispatch, exactly as inside windows.
  auto publish_views = [&](TimeMs at) {
    if (!stateful_router) return;
    for (std::uint32_t k = 0; k < node_count; ++k) {
      Shard& s = shards[k];
      reap_node(s, at);
      snapshot.publish(
          k, static_cast<std::uint32_t>(s.busy + s.queued_live),
          static_cast<std::uint32_t>(s.warm.size()));
    }
  };

  // Routes every dispatch whose time falls in [B, window_end): pending
  // transfers merged with the arrival stream in (time, arrivals-first,
  // id) order. Late transfers (clamped) deliver at B.
  auto route_batch = [&](TimeMs B, TimeMs window_end) {
    std::sort(pending.begin(), pending.end(),
              [](const Transfer& a, const Transfer& b) {
                return a.at != b.at ? a.at < b.at : a.id < b.id;
              });
    publish_views(B);
    std::size_t p = 0;
    while (true) {
      const bool have_arr = next_arrival < n;
      const TimeMs a_at = have_arr ? arrival_times[next_arrival] : kInf;
      const bool have_p = p < pending.size();
      const TimeMs p_at = have_p ? std::max(pending[p].at, B) : kInf;
      if (a_at < window_end && a_at <= p_at) {
        route_one(next_arrival, a_at, InboxEntry::Kind::kNew);
        ++next_arrival;
      } else if (p_at < window_end) {
        route_one(pending[p].id, p_at, InboxEntry::Kind::kRedispatch);
        ++p;
      } else {
        break;
      }
    }
    pending.erase(pending.begin(), pending.begin() + p);
  };

  // Single-window fast path sizing: with the whole run routed in one
  // batch, per-node inbox and log reservations can be exact, so the
  // parallel phase allocates nothing. (A lone node routes nothing: it
  // reads the arrival cursor and folds its deltas directly.)
  if (single_window && !solo) {
    std::vector<std::uint32_t> batch_picks;
    batch_picks.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      batch_picks.push_back(router.pick(snapshot.data(), node_count));
      snapshot.apply_pick(batch_picks.back());
    }
    std::vector<std::size_t> routed_k(node_count, 0);
    for (const std::uint32_t k : batch_picks) ++routed_k[k];
    for (std::uint32_t k = 0; k < node_count; ++k) {
      shards[k].inbox.reserve(routed_k[k]);
      // live+/- (<= 2 per cold start <= 2x routed), queue+/- and one
      // latency per dispatch: 5x routed bounds the whole-run log.
      shards[k].log.reserve(5 * routed_k[k] + 16);
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      shards[batch_picks[i]].inbox.push_back(
          InboxEntry{arrival_times[i], i, InboxEntry::Kind::kNew});
      ++barrier_routed;
    }
    next_arrival = static_cast<std::uint32_t>(n);
  }

  // Merges every shard's window log into the global trajectory in
  // (time, node) order. K-way merge through a cursor min-heap —
  // O(E log K), not O(E * K), so the serial barrier work stays a small
  // fraction of the windows it merges.
  std::vector<std::uint32_t> merge_heap(node_count);
  auto merge_less = [&](std::uint32_t a, std::uint32_t b) {
    const TimeMs at_a = shards[a].log[merge_cursor[a]].at;
    const TimeMs at_b = shards[b].log[merge_cursor[b]].at;
    // std::push/pop_heap build a max-heap; invert for (at, node) min.
    return at_a != at_b ? at_a > at_b : a > b;
  };
  auto merge_logs = [&]() {
    merge_heap.clear();
    for (std::uint32_t k = 0; k < node_count; ++k) {
      merge_cursor[k] = 0;
      if (!shards[k].log.empty()) merge_heap.push_back(k);
    }
    std::make_heap(merge_heap.begin(), merge_heap.end(), merge_less);
    while (!merge_heap.empty()) {
      std::pop_heap(merge_heap.begin(), merge_heap.end(), merge_less);
      const std::uint32_t best = merge_heap.back();
      merge_heap.pop_back();
      const LogEntry& e = shards[best].log[merge_cursor[best]++];
      if (merge_cursor[best] < shards[best].log.size()) {
        merge_heap.push_back(best);
        std::push_heap(merge_heap.begin(), merge_heap.end(), merge_less);
      }
      fold(e.at, e.kind, e.value);
    }
    for (Shard& s : shards) s.log.clear();
  };

  // Coordinator-side node crash at its statically-known time: fail the
  // in-flight attempts (ascending id), drain the warm pool, re-route the
  // queue — all before the next window opens (crash-first tie order).
  auto process_crash = [&](const CrashPoint& c) {
    Shard& s = shards[c.k];
    account(s, c.at);
    coord_last = std::max(coord_last, c.at);
    ++result.node_crashes;
    ++result.node_results[c.k].node_crashes;
    if (tracer) {
      tracer->instant_at("fault.node_crash", "fault", obs::kVirtualPid,
                         request_track, c.at,
                         {{"node", static_cast<double>(c.k)},
                          {"victims", static_cast<double>(s.busy)}});
    }
    if (recorder) {
      recorder->record(obs::RecKind::kNodeCrash, 0, 0, c.at,
                       static_cast<double>(s.busy),
                       static_cast<std::int32_t>(c.k));
    }
    for (std::uint32_t victim = 0; victim < static_cast<std::uint32_t>(n);
         ++victim) {
      ReqState& r = reqs[victim];
      if (r.phase != ReqState::Phase::kRunning || r.node != c.k) continue;
      s.events.cancel(r.pending_ev);
      --s.busy;
      --s.live;
      fold(c.at, LogEntry::Kind::kLiveDown, 0.0);
      count_fault(s, FaultKind::kNodeCrash, victim, r.attempt, c.at,
                  static_cast<double>(c.k));
      fail_attempt(s, victim, c.at, 0.0, coord, coord_sink);
    }
    // The warm pool dies with the node.
    while (!s.warm.empty()) {
      s.warm.pop_front();
      --s.live;
      fold(c.at, LogEntry::Kind::kLiveDown, 0.0);
    }
    // Queued requests go back through the router at the crash time; the
    // node itself restarts immediately (cold), so the router may well
    // pick it again. Their timeouts travel with them. A lone node takes
    // its queue back in order, as retries at the crash time on its own
    // heap, with the timeouts left armed.
    publish_views(c.at);
    while (const auto qid = take_queued(s)) {
      fold(c.at, LogEntry::Kind::kQueueDown, 0.0);
      ReqState& r = reqs[*qid];
      if (solo) {
        r.phase = ReqState::Phase::kBackoff;
        r.pending_ev = s.events.schedule(
            c.at, ClusterEvent{ClusterEvent::Kind::kRetry, *qid});
        continue;
      }
      transfer_timeout(s, r);
      route_one(*qid, c.at, InboxEntry::Kind::kRedispatch);
    }
  };

  // ---- the window loop ----

  const std::size_t worker_count = std::min<std::size_t>(
      node_count, ThreadPool::resolve_workers(config.sim_threads));
  const bool parallel = worker_count > 1;

  std::optional<ThreadPool> pool;
  std::optional<sim::WindowBarrier> barrier;
  std::vector<std::future<void>> worker_done;
  if (parallel) {
    pool.emplace(worker_count);
    barrier.emplace(worker_count);
    worker_done.reserve(worker_count);
    for (std::size_t w = 0; w < worker_count; ++w) {
      worker_done.push_back(pool->submit([&, w] {
        std::uint64_t seen = 0;
        double window_end = 0.0;
        while (barrier->wait_open(&seen, &window_end)) {
          for (std::uint32_t k = static_cast<std::uint32_t>(w);
               k < node_count; k += static_cast<std::uint32_t>(worker_count)) {
            process_window(shards[k], window_end);
          }
          barrier->report_done();
        }
      }));
    }
  }

  // Hands the window to the workers only when its routed batch pays for
  // the barrier; otherwise the coordinator runs every shard inline while
  // the workers stay parked (they take the barrier mutex before touching
  // any shard, so inline windows are race-free).
  auto run_window = [&](TimeMs window_end) {
    std::size_t batch = 0;
    for (const Shard& s : shards) batch += s.inbox.size() - s.inbox_cursor;
    const bool fan_out = batch >= kFanOutMinDispatches;
    if (fan_out) ++fanout_windows;
    if (parallel && fan_out) {
      barrier->open(window_end);
      barrier->wait_done();
    } else {
      for (Shard& s : shards) process_window(s, window_end);
    }
    ++window_count;
    for (Shard& s : shards) {
      pending.insert(pending.end(), s.outbox.begin(), s.outbox.end());
      s.outbox.clear();
    }
    merge_logs();
  };

  std::size_t next_crash = 0;
  TimeMs B = 0.0;
  for (;;) {
    TimeMs t_min = kInf;
    if (next_arrival < n) t_min = std::min(t_min, arrival_times[next_arrival]);
    for (const Transfer& t : pending) t_min = std::min(t_min, t.at);
    if (next_crash < crashes.size()) {
      t_min = std::min(t_min, crashes[next_crash].at);
    }
    for (const Shard& s : shards) {
      t_min = std::min(t_min, s.next_at);
      if (s.inbox_cursor < s.inbox.size()) {
        t_min = std::min(t_min, s.inbox[s.inbox_cursor].at);
      }
    }
    if (!std::isfinite(t_min)) break;
    B = std::max(B, t_min);  // idle-window jump
    while (next_crash < crashes.size() && crashes[next_crash].at <= B) {
      process_crash(crashes[next_crash]);
      ++next_crash;
    }
    TimeMs window_end = B + width;  // inf-safe
    if (next_crash < crashes.size() && crashes[next_crash].at < window_end) {
      window_end = crashes[next_crash].at;
    }
    if (!solo && !single_window) route_batch(B, window_end);
    run_window(window_end);
    B = window_end;
    if (!std::isfinite(B)) B = 0.0;  // loop exits via t_min next round
  }

  if (parallel) {
    barrier->close();
    for (auto& f : worker_done) f.get();
  }

  // ---- teardown: deterministic fold in node order ----

  Tally total = coord;
  double busy_area = 0.0;
  TimeMs last_event = coord_last;
  for (std::uint32_t k = 0; k < node_count; ++k) {
    const Shard& s = shards[k];
    total.fold(s.tally);
    busy_area += s.busy_area;
    last_event = std::max(last_event, s.last_event);
    NodeResult& nr = result.node_results[k];
    nr.routed = s.routed;
    nr.completed = s.tally.completed;
    nr.cold_starts = s.tally.cold_starts;
    nr.peak_queue = s.peak_queue;
  }
  result.completed = total.completed;
  result.cold_starts = total.cold_starts;
  result.failed = total.failed;
  result.retried = total.retried;
  result.timed_out = total.timed_out;
  result.dropped = total.dropped;

  // Streaming accumulator and latency histogram, both in the merged
  // (time, node) completion order (deterministic: virtual time);
  // run_batch merges the accumulators across seeds.
  obs::MetricsRegistry* metrics = config.metrics;
  obs::Histogram* latency_hist =
      metrics ? &metrics->histogram("cluster.e2e_latency_ms") : nullptr;
  for (double latency : latencies) {
    result.latency_stats.add(latency);
    if (latency_hist) latency_hist->observe(latency);
  }
  if (!latencies.empty()) {
    result.mean_ms = mean_of(latencies);
    // One sort for all three quantiles, in the buffer itself: no second
    // whole-run copy.
    const Cdf cdf(std::move(latencies));
    result.p50_ms = cdf.quantile(0.50);
    result.p95_ms = cdf.quantile(0.95);
    result.p99_ms = cdf.quantile(0.99);
  }
  const TimeMs span = std::max(last_event, config.horizon_ms);
  result.achieved_rps =
      span > 0.0 ? static_cast<double>(result.completed) / (span / 1000.0)
                 : 0.0;
  result.mean_busy_instances = span > 0.0 ? busy_area / span : 0.0;

  if (metrics) {
    metrics->counter("cluster.cold_starts")
        .inc(static_cast<std::int64_t>(total.cold_starts));
    for (const FaultKind kind : kInjectedFaults) {
      count_injected(*metrics, kind,
                     static_cast<std::int64_t>(
                         total.faults[static_cast<std::size_t>(kind)]));
    }
    metrics->counter("chiron.retry.attempts")
        .inc(static_cast<std::int64_t>(total.retried));
    metrics->counter("chiron.request.timeout")
        .inc(static_cast<std::int64_t>(total.timed_out));
    // Queue-depth gauges are replayed: high-water = the peak, final
    // value = the (empty) end-of-run depth — what setting them at every
    // queue change would have left.
    for (std::uint32_t k = 0; k < node_count; ++k) {
      const Shard& s = shards[k];
      const std::string node = "cluster.node." + std::to_string(k);
      metrics->counter(node + ".cold_starts")
          .inc(static_cast<std::int64_t>(s.tally.cold_starts));
      obs::Gauge& depth = metrics->gauge(node + ".queue_depth");
      depth.set(static_cast<double>(s.peak_queue));
      depth.set(static_cast<double>(s.queued_live));
    }
    obs::Gauge& qg = metrics->gauge("cluster.queue_depth");
    qg.set(static_cast<double>(result.peak_queue));
    qg.set(static_cast<double>(queued_now));
    metrics->gauge("cluster.peak_instances")
        .set(static_cast<double>(result.peak_instances));
    // Engine introspection: window/transfer volume for the obs endpoint.
    metrics->counter("cluster.sim.windows")
        .inc(static_cast<std::int64_t>(window_count));
    metrics->counter("cluster.sim.fanout_windows")
        .inc(static_cast<std::int64_t>(fanout_windows));
    metrics->counter("cluster.sim.transfers")
        .inc(static_cast<std::int64_t>(transfer_count));
    metrics->counter("cluster.sim.barrier_routed")
        .inc(static_cast<std::int64_t>(barrier_routed));
  }

  CHIRON_LOG(kDebug) << "cluster sim windowed (" << node_count << " nodes, "
                     << to_string(config.router) << ", " << worker_count
                     << " threads, " << window_count << " windows ("
                     << fanout_windows << " fanned out), " << transfer_count
                     << " transfers): " << result.completed << "/"
                     << result.offered << " requests, "
                     << result.cold_starts << " cold starts, "
                     << result.failed << " faults, " << result.retried
                     << " retries, " << result.timed_out << " timeouts, "
                     << result.dropped << " drops, peak queue "
                     << result.peak_queue << ", " << result.node_crashes
                     << " node crashes";
  return result;
}

}  // namespace cluster_detail
}  // namespace chiron

// Windowed conservative-PDES engine behind ClusterSimulator::run_prepared
// at every node count: one WindowedEngine per run, in two halves.
//
// The shard half (ShardHalf) owns what every shard reads and none writes
// — the RunContext: config (retry policy included), backend, fault
// injector, cold penalty, per-node capacity, id base, arrival stream and
// sinks — plus the request table.
// Each of its methods advances one Shard& through its own state:
// accounting, reaping, dispatch and service, the four event handlers,
// and process_window. A worker calls it for the shards it owns during a
// window; the coordinator calls it for any shard at a barrier.
//
// The coordinator half (WindowedEngine, which derives privately from
// ShardHalf) owns everything that spans shards: the router and its
// snapshot, pending transfers, the crash schedule, the run's accounting
// trajectory with its (time, node) merge, the window counters, the
// window loop and teardown. A shard-half method cannot name any of it,
// so a window cannot touch it.
//
// Every node owns a full serving shard — typed event heap, monotone warm
// ring, tombstoned waiting queue, constant-delay timeout ring — and
// advances it inside left-closed time windows [B, B'). The window width
// is the minimum cross-node latency: a re-routed retry generated at
// t_fail inside the window cannot re-dispatch before t_fail + the retry
// backoff floor, so with width <= floor every cross-node event lands at
// or after the next barrier. At each barrier the coordinator owns all
// state: it drains per-node outboxes, routes pending dispatches
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
// stream with its own cursor, keeps its retries on its own heap as
// kRetry events, and folds each accounting delta directly into the
// run's trajectory (the (time, node) merge of a single log is the log
// itself), so the run is one window unless a node crash cuts it. It
// draws service times from the service root stream itself — the closure
// reference loop's schedule, which ClusterParityTest asserts
// bit-for-bit.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/fork_join.h"
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

/// One dispatch: routed into a shard's window inbox or, for a re-routed
/// retry (kRedispatch), waiting in an outbox and then the coordinator's
/// pending batch for the barrier of the window containing `at`.
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

/// Counters a shard accumulates privately (the coordinator adds crash
/// victims and late timeouts to the shard they hit); summed (integers —
/// order free) into ClusterResult and the metric sinks at teardown.
struct Tally {
  std::size_t failed = 0;
  std::size_t retried = 0;
  std::size_t timed_out = 0;
  std::size_t dropped = 0;
  /// Injected faults, indexed by FaultKind.
  std::array<std::size_t, static_cast<std::size_t>(FaultKind::kNodeCrash) + 1>
      faults{};
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
  /// True while the armed timeout is a live entry in the arrival shard's
  /// timeout ring. Only shard-half code given that shard's Shard& writes
  /// it — arming, firing, disarming or transferring the entry, inside a
  /// window or at a barrier — and once cleared it stays false. Every
  /// clearing write first tests it true, so a shard the request moved to
  /// only reads it, and prune_timeout_ring can read it while that shard
  /// runs its window.
  bool ring_live = false;
};
static_assert(sizeof(ReqState) == 40, "ReqState grew: one per request");

/// The run's accounting trajectory, folded in one canonical (time, node)
/// order: peaks are sampled at their only increase points (kLiveUp /
/// kQueueUp), and latencies fold in order.
struct Trajectory {
  obs::Tracer* tracer = nullptr;
  std::size_t live_now = 0;
  std::size_t queued_now = 0;
  std::size_t peak_instances = 0;
  std::size_t peak_queue = 0;
  std::vector<double> latencies;

  void fold(TimeMs at, LogEntry::Kind kind, double value) {
    switch (kind) {
      case LogEntry::Kind::kLiveUp:
        ++live_now;
        peak_instances = std::max(peak_instances, live_now);
        return;
      case LogEntry::Kind::kLiveDown:
        --live_now;
        return;
      case LogEntry::Kind::kQueueUp:
        ++queued_now;
        peak_queue = std::max(peak_queue, queued_now);
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
  }
};

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
  ClusterEventQueue events;
  Ring<TimeoutEntry> timeout_ring;
  std::vector<InboxEntry> inbox;
  /// Cross-node transfers: the owning worker appends during a window, the
  /// coordinator at a crash; it drains them at the barrier (handoff
  /// ordered by the barrier mutex).
  std::vector<InboxEntry> outbox;
  std::vector<LogEntry> log;
  double busy_area = 0.0;
  TimeMs last_event = 0.0;
  /// Earliest local event left (a pre-routed arrival included): what the
  /// coordinator's idle-window jump reads.
  TimeMs next_at = kInf;
  Rng rng{0};  ///< per-node service-time stream
  Tally tally;
  NodeResult result;  ///< this node's slice of the run, kept as it goes
  /// One-node run only: the shard's cursor over the sorted arrivals, and
  /// the run's trajectory, into which it folds each delta as it happens.
  /// Null with more nodes, whose deltas ride `log` to the barrier merge.
  std::uint32_t next_arrival = 0;
  Trajectory* direct = nullptr;
};

/// What every shard reads and none writes: fixed at setup.
struct RunContext {
  TimeMs deadline_of(const ReqState& r) const {
    return r.arrival + config.retry.timeout_ms;
  }

  // The one path from a request event to the sinks: the recorder record,
  // and the trace event drawn from the same kind. A terminal kind
  // (complete, timeout, drop) also closes the request's async span.
  // Tracer and recorder are thread-safe and written live, by workers
  // too; registry metrics are published once at teardown.
  void note(obs::RecKind kind, std::uint32_t id, std::uint32_t attempt,
            TimeMs at, double value, std::uint32_t node) const {
    const std::uint64_t rid = id_base + id;
    if (recorder) {
      recorder->record(kind, rid, attempt, at, value,
                       static_cast<std::int32_t>(node));
    }
    if (!tracer) return;
    const double request = static_cast<double>(rid);
    switch (kind) {
      case obs::RecKind::kAdmit:
        tracer->async_begin_at("request", "sim", obs::kVirtualPid,
                               request_track, at, rid);
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
                         at, rid);
  }

  const ClusterConfig& config;
  const Backend& backend;
  const FaultInjector injector;
  const TimeMs cold_penalty;
  const std::size_t per_node_capacity;
  const std::uint64_t id_base;  ///< request i is id_base + i in the sinks
  /// Sorted arrival times; a shard reads them only in a one-node run.
  const std::vector<TimeMs>& arrivals;
  const bool solo;                      ///< one node: nothing is routed
  obs::Tracer* const tracer;            ///< null when off
  const int request_track;
  obs::FlightRecorder* const recorder;  ///< null when off
};

/// The shard half: each method advances the one Shard& it is given,
/// reading the run context and the request table. It holds no reference
/// to coordinator state.
class ShardHalf {
 protected:
  explicit ShardHalf(const RunContext& ctx)
      : ctx_(ctx), reqs_(ctx.arrivals.size()) {
    for (std::size_t i = 0; i < reqs_.size(); ++i) {
      reqs_[i].arrival = ctx.arrivals[i];
    }
  }

  static void account(Shard& s, TimeMs now) {
    s.busy_area += static_cast<double>(s.busy) * (now - s.last_event);
    s.last_event = now;
  }

  // Multi-node shards log their deltas for the (time, node) merge at the
  // next barrier; a lone shard's log already is that order, so its
  // deltas fold as they happen.
  static void log_entry(Shard& s, TimeMs at, LogEntry::Kind kind,
                        double value = 0.0) {
    if (s.direct) {
      s.direct->fold(at, kind, value);
    } else {
      s.log.push_back(LogEntry{at, value, kind});
    }
  }

  void reap_node(Shard& s, TimeMs now) const {
    while (!s.warm.empty() &&
           now - s.warm.front() >= ctx_.config.keep_alive_ms) {
      s.warm.pop_front();
      --s.live;
      log_entry(s, now, LogEntry::Kind::kLiveDown);
    }
  }

  void count_fault(Shard& s, FaultKind kind, std::uint32_t id,
                   std::uint32_t attempt, TimeMs now,
                   double value = 0.0) const {
    ++s.tally.faults[static_cast<std::size_t>(kind)];
    ctx_.note(rec_kind(kind), id, attempt, now, value, reqs_[id].node);
  }

  // Disarms the timeout `r` holds, seen from shard `s` (which must own
  // it, or it is a ring entry turning into a lazy tombstone).
  static void disarm_timeout(Shard& s, ReqState& r) {
    if (r.ring_live) {
      r.ring_live = false;  // a live ring entry means s owns the ring
    } else if (r.timeout_node == s.k) {
      s.events.cancel(r.timeout_ev);
    }
  }

  // Hands `r`'s armed timeout to a cross-node transfer: it leaves `s`
  // and the destination re-arms it at delivery.
  static void transfer_timeout(Shard& s, ReqState& r) {
    if (!r.has_timeout_ev) return;
    disarm_timeout(s, r);
    r.timeout_node = kTimeoutInFlight;
  }

  // Disarms `id`'s timeout from shard `s` and marks the request done.
  void finalize(Shard& s, std::uint32_t id) {
    ReqState& r = reqs_[id];
    r.phase = ReqState::Phase::kDone;
    if (r.has_timeout_ev) disarm_timeout(s, r);
    r.has_timeout_ev = false;
  }

  std::optional<std::uint32_t> take_queued(Shard& s) const {
    while (!s.queue.empty()) {
      const std::uint32_t id = s.queue.pop_front();
      if (reqs_[id].phase == ReqState::Phase::kQueued) {
        --s.queued_live;
        return id;
      }
    }
    return std::nullopt;
  }

  // Handles one failed attempt at `t` on shard `s`. A surviving retry
  // becomes a cross-node transfer in `s`'s outbox — unless its deadline
  // lands at or before the re-dispatch time, in which case the
  // still-armed timeout fires first and the retry is never delivered
  // (the reference loop's timeout-cancels-retry order). A lone node
  // keeps the retry on its own heap, where a timeout that fires first
  // cancels it.
  void fail_attempt(Shard& s, std::uint32_t id, TimeMs t,
                    TimeMs extra_delay) {
    ReqState& r = reqs_[id];
    ++s.tally.failed;
    if (r.attempt < ctx_.config.retry.max_attempts) {
      ++s.tally.retried;
      const TimeMs backoff =
          ctx_.injector.retry_backoff_ms(ctx_.config.retry, r.attempt, id);
      ctx_.note(obs::RecKind::kRetryBackoff, id, r.attempt, t,
                extra_delay + backoff, r.node);
      ++r.attempt;
      r.phase = ReqState::Phase::kBackoff;
      const TimeMs t_retry = t + extra_delay + backoff;
      if (ctx_.solo) {
        r.pending_ev = s.events.schedule(
            t_retry, ClusterEvent{ClusterEvent::Kind::kRetry, id});
      } else if (r.has_timeout_ev && ctx_.deadline_of(r) <= t_retry) {
        // The timeout wins: leave it armed where it is; no transfer.
      } else {
        transfer_timeout(s, r);
        s.outbox.push_back(
            InboxEntry{t_retry, id, InboxEntry::Kind::kRedispatch});
      }
    } else {
      ++s.tally.dropped;
      ctx_.note(obs::RecKind::kDrop, id, r.attempt, t, 0.0, r.node);
      finalize(s, id);
    }
  }

  void begin_service(Shard& s, std::uint32_t id, TimeMs now,
                     TimeMs startup) {
    ReqState& r = reqs_[id];
    r.phase = ReqState::Phase::kRunning;
    ++s.busy;
    const FaultSpec& faults = ctx_.config.faults;
    TimeMs service = ctx_.backend.latency(s.rng);
    if (ctx_.injector.straggles(id, r.attempt)) {
      service *= faults.straggler_multiplier;
      count_fault(s, FaultKind::kStraggler, id, r.attempt, now,
                  faults.straggler_multiplier);
    }
    ctx_.note(obs::RecKind::kServiceBegin, id, r.attempt, now, service, s.k);
    if (ctx_.injector.crashes(id, r.attempt)) {
      const TimeMs crash_at = now + startup + service * faults.crash_point;
      r.pending_ev = s.events.schedule(
          crash_at, ClusterEvent{ClusterEvent::Kind::kCrash, id});
      return;
    }
    const TimeMs finish = now + startup + service;
    r.pending_ev = s.events.schedule(
        finish, ClusterEvent{ClusterEvent::Kind::kCompletion, id});
  }

  // Places `id` on shard `s` at `now` — routing already decided at the
  // barrier: warm reuse, cold start if the node has headroom, else the
  // node's queue.
  void dispatch_to(Shard& s, std::uint32_t id, TimeMs now) {
    account(s, now);
    reap_node(s, now);
    ReqState& r = reqs_[id];
    r.node = s.k;
    ++s.result.routed;
    if (!s.warm.empty()) {
      s.warm.pop_back();  // LIFO keeps hot instances hot
      begin_service(s, id, now, 0.0);
    } else if (s.live < ctx_.per_node_capacity) {
      if (ctx_.injector.cold_start_fails(id, r.attempt)) {
        // The sandbox dies during boot: the boot time is still paid (it
        // delays the retry) but no instance comes up.
        count_fault(s, FaultKind::kColdStart, id, r.attempt, now,
                    ctx_.cold_penalty);
        fail_attempt(s, id, now, ctx_.cold_penalty);
        return;
      }
      ++s.live;
      log_entry(s, now, LogEntry::Kind::kLiveUp);
      ++s.result.cold_starts;
      ctx_.note(obs::RecKind::kColdStart, id, r.attempt, now,
                ctx_.cold_penalty, s.k);
      begin_service(s, id, now, ctx_.cold_penalty);
    } else {
      r.phase = ReqState::Phase::kQueued;
      s.queue.push_back(id);
      ++s.queued_live;
      s.result.peak_queue = std::max(s.result.peak_queue, s.queued_live);
      log_entry(s, now, LogEntry::Kind::kQueueUp);
      ctx_.note(obs::RecKind::kQueue, id, r.attempt, now,
                static_cast<double>(s.queued_live), s.k);
    }
  }

  // Frees the instance that just finished/aborted on `s`: hand it to the
  // next queued request directly, or park it in the warm pool.
  void release_instance(Shard& s, TimeMs at) {
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
  }

  void handle_timeout(Shard& s, std::uint32_t id, TimeMs at) {
    ReqState& r = reqs_[id];
    if (r.ring_live) r.ring_live = false;  // fired from s's own ring
    r.has_timeout_ev = false;
    ++s.tally.timed_out;
    ctx_.note(obs::RecKind::kTimeout, id, r.attempt, at, 0.0, r.node);
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
        // is an undelivered transfer (or was never sent); the coordinator
        // checks deadlines before delivery, so nothing is armed here.
        if (ctx_.solo) s.events.cancel(r.pending_ev);
        break;
      default:
        break;
    }
    r.phase = ReqState::Phase::kDone;
  }

  void handle_completion(Shard& s, std::uint32_t id, TimeMs at) {
    account(s, at);
    ReqState& r = reqs_[id];
    --s.busy;
    const TimeMs latency = at - r.arrival;
    log_entry(s, at, LogEntry::Kind::kLatency, latency);
    ++s.result.completed;
    ctx_.note(obs::RecKind::kComplete, id, r.attempt, at, latency, s.k);
    finalize(s, id);
    release_instance(s, at);
  }

  void handle_crash(Shard& s, std::uint32_t id, TimeMs at) {
    account(s, at);
    ReqState& r = reqs_[id];
    --s.busy;
    --s.live;  // the crash takes the sandbox with it
    log_entry(s, at, LogEntry::Kind::kLiveDown);
    count_fault(s, FaultKind::kCrash, id, r.attempt, at);
    fail_attempt(s, id, at, 0.0);
    // The crash freed a slot on this node: a queued request can now
    // cold-start here (no re-route; the queue is node-local).
    if (const auto qid = take_queued(s)) {
      log_entry(s, at, LogEntry::Kind::kQueueDown);
      dispatch_to(s, *qid, at);
    }
  }

  void handle_inbox(Shard& s, const InboxEntry& e) {
    ReqState& r = reqs_[e.id];
    s.events.advance_to(e.at);
    if (e.kind == InboxEntry::Kind::kNew) {
      ctx_.note(obs::RecKind::kAdmit, e.id, 1, e.at, 0.0, kNoNode);
      if (ctx_.config.retry.timeout_ms > 0.0) {
        r.has_timeout_ev = true;
        r.ring_live = true;
        r.timeout_node = s.k;
        s.timeout_ring.push_back(
            TimeoutEntry{ctx_.deadline_of(r), s.events.mint_seq(), e.id});
      }
    } else if (r.has_timeout_ev && r.timeout_node == kTimeoutInFlight) {
      // The timeout travelled with the transfer: re-arm it here FIRST so
      // its seq precedes any event of the re-dispatched attempt —
      // timeout still wins ties at the deadline.
      r.timeout_node = s.k;
      r.timeout_ev = s.events.schedule(
          ctx_.deadline_of(r),
          ClusterEvent{ClusterEvent::Kind::kTimeout, e.id});
    }
    dispatch_to(s, e.id, e.at);
  }

  // Pops the timeout ring's front entries while they are tombstones
  // (fired, finalized, or transferred away).
  void prune_timeout_ring(Shard& s) const {
    while (!s.timeout_ring.empty()) {
      // ring_live is the only ReqState field read here: the request may
      // have moved to another node whose worker is concurrently
      // rewriting its other timeout fields (see ReqState::ring_live).
      if (reqs_[s.timeout_ring.front().id].ring_live) return;
      s.timeout_ring.pop_front();
    }
  }

  // Runs shard `s` through its window [.., window_end): dispatches (the
  // routed inbox, all < window_end by construction — or, on a lone node,
  // the arrival stream), ring timeouts, and heap events merged with
  // dispatch-wins-ties and ring-vs-heap (time, seq) order — the
  // reference loop's event order, per shard.
  void process_window(Shard& s, TimeMs window_end) {
    const std::vector<TimeMs>& arrivals = ctx_.arrivals;
    std::size_t next_inbox = 0;
    for (;;) {
      prune_timeout_ring(s);
      TimeMs inbox_at = kInf;
      if (ctx_.solo) {
        if (s.next_arrival < arrivals.size() &&
            arrivals[s.next_arrival] < window_end) {
          inbox_at = arrivals[s.next_arrival];
        }
      } else if (next_inbox < s.inbox.size()) {
        inbox_at = s.inbox[next_inbox].at;
      }
      TimeMs ring_at = kInf;
      std::uint64_t ring_seq = 0;
      if (!s.timeout_ring.empty() && s.timeout_ring.front().at < window_end) {
        ring_at = s.timeout_ring.front().at;
        ring_seq = s.timeout_ring.front().seq;
      }
      TimeMs heap_at = kInf;
      std::uint64_t heap_seq = 0;
      if (!s.events.peek(&heap_at, &heap_seq) || heap_at >= window_end) {
        heap_at = kInf;  // heap_seq is then never read
      }
      if (inbox_at < kInf && inbox_at <= ring_at && inbox_at <= heap_at) {
        const InboxEntry e =
            ctx_.solo ? InboxEntry{inbox_at, s.next_arrival++,
                                   InboxEntry::Kind::kNew}
                      : s.inbox[next_inbox++];
        handle_inbox(s, e);
        continue;
      }
      if (ring_at < heap_at || (ring_at == heap_at && ring_seq < heap_seq)) {
        if (!std::isfinite(ring_at)) break;
        const TimeoutEntry front = s.timeout_ring.front();
        s.timeout_ring.pop_front();
        s.events.advance_to(front.at);
        handle_timeout(s, front.id, front.at);
        continue;
      }
      if (!std::isfinite(heap_at)) break;
      TimeMs at = 0.0;
      ClusterEvent ev;
      s.events.pop(&at, &ev);
      switch (ev.kind) {
        case ClusterEvent::Kind::kCompletion:
          handle_completion(s, ev.id, at);
          break;
        case ClusterEvent::Kind::kCrash:
          handle_crash(s, ev.id, at);
          break;
        case ClusterEvent::Kind::kTimeout:
          handle_timeout(s, ev.id, at);
          break;
        case ClusterEvent::Kind::kRetry:  // lone node: re-dispatch here
          dispatch_to(s, ev.id, at);
          break;
      }
    }
    s.inbox.clear();
    // Publish the earliest remaining local event for the coordinator's
    // idle-window jump.
    prune_timeout_ring(s);
    s.next_at = kInf;
    if (!s.timeout_ring.empty()) s.next_at = s.timeout_ring.front().at;
    TimeMs at;
    if (s.events.peek(&at) && at < s.next_at) s.next_at = at;
  }

  const RunContext ctx_;
  std::vector<ReqState> reqs_;  ///< the request table, one per arrival
};

/// The coordinator half: routing, node crashes, the barrier merge, the
/// window loop and teardown. It runs only while the workers are parked
/// (or on the one thread of an inline window), so it may touch any
/// shard.
class WindowedEngine : private ShardHalf {
 public:
  explicit WindowedEngine(const RunContext& ctx)
      : ShardHalf(ctx),
        node_count_(static_cast<std::uint32_t>(ctx.config.nodes)),
        n_(ctx.arrivals.size()),
        router_(ctx.config.router, node_count_, Rng{}),
        snapshot_(node_count_),
        shards_(node_count_) {
    const ClusterConfig& config = ctx.config;
    const RetryPolicy& retry = config.retry;
    const bool solo = ctx.solo;
    const bool has_timeout = retry.timeout_ms > 0.0;

    // Seeded stream plan, as run() threads it: the first split fed the
    // arrival generator, the second roots the service streams, the third
    // seeds the router. Per-node service streams are further splits of
    // the service root, taken in node order at setup — fixed for every
    // thread count. A lone node draws from the root itself, as the
    // reference does.
    Rng rng(config.seed);
    (void)rng.split();
    Rng service_root = rng.split();
    router_ = Router(config.router, node_count_, rng.split());

    // Mode derivation — a pure function of the config, never of the
    // thread count (the parity anchor). Retries can cross nodes only when
    // an attempt can actually fail with attempts to spare; node crashes
    // always transfer (queue drains re-route) but their times are known
    // statically, so they cut windows rather than bound the width. A lone
    // node transfers nothing and never consults the router.
    const bool attempts_can_fail = config.faults.cold_start_failure > 0.0 ||
                                   config.faults.crash > 0.0 ||
                                   config.faults.node_crash > 0.0;
    const bool retries = retry.max_attempts > 1 && attempts_can_fail;
    stateful_router_ =
        !solo && (config.router == RouterPolicy::kLeastOutstanding ||
                  config.router == RouterPolicy::kPowerOfTwo ||
                  config.router == RouterPolicy::kWarmAffinity);
    if (!solo && retries) {
      // Backoff floor: the smallest backoff any retry can draw is
      // min(base, max) * (1 - jitter) (attempt 1, worst-case jitter).
      const TimeMs floor_ms =
          std::min(retry.base_backoff_ms, retry.max_backoff_ms) *
          (1.0 - retry.jitter);
      width_ = std::min(width_, std::max(kMinWindowMs, floor_ms));
    }
    if (stateful_router_) width_ = std::min(width_, kStatefulWindowMs);
    single_window_ =
        !std::isfinite(width_) && !(config.faults.node_crash > 0.0);

    if (config.faults.node_crash > 0.0) {
      crashes_.reserve(node_count_);
      for (std::uint32_t k = 0; k < node_count_; ++k) {
        if (!ctx.injector.node_crashes(k)) continue;
        crashes_.emplace_back(
            config.horizon_ms * ctx.injector.node_crash_frac(k), k);
      }
      std::sort(crashes_.begin(), crashes_.end());
    }

    // Shard sizing. Per-node reservations scale with the node's share of
    // the request stream (with 4x headroom for routing skew) so steady
    // state stays allocation-free; a pathologically skewed run grows a
    // ring or vector — correct, just no longer allocation-free.
    const std::size_t n = n_;
    const std::size_t cap = ctx.per_node_capacity;
    const std::size_t share = n / node_count_ + 1;
    const bool transfers_possible =
        !solo && (retries || config.faults.node_crash > 0.0);
    for (std::uint32_t k = 0; k < node_count_; ++k) {
      Shard& s = shards_[k];
      s.k = k;
      s.rng = solo ? service_root : service_root.split();
      s.warm.reserve(std::min(cap, n) + 1);
      s.queue.reserve(std::min(n, 4 * share + 64) + 1);
      if (has_timeout) s.timeout_ring.reserve(std::min(n, 4 * share + 64) + 1);
      // Live heap events: completions/crashes (<= busy <= capacity) plus
      // heap timeouts and retries (<= requests resident on the node).
      const std::size_t ev_slots =
          retries || config.faults.node_crash > 0.0 || has_timeout
              ? std::min(2 * n + 8, 6 * share + 2 * cap + 64)
              : cap + 16;
      s.events.reserve(ev_slots, 2 * ev_slots + 16);
      if (!solo && !single_window_) {
        s.inbox.reserve(std::min(n, 4 * share + 64));
        s.log.reserve(std::min(5 * n, 10 * share + 64));
      }
      if (transfers_possible) s.outbox.reserve(std::min(n, 2 * share + 64));
    }
    if (solo) shards_[0].direct = &trajectory_;
    if (transfers_possible) pending_.reserve(n);
    trajectory_.tracer = ctx.tracer;
    trajectory_.latencies.reserve(n);
    merge_heap_.reserve(node_count_);
    if (single_window_ && !solo) pre_route_single_window();
  }

  ClusterResult run() {
    worker_count_ = std::min<std::size_t>(
        node_count_, resolve_workers(ctx_.config.sim_threads));
    // Task 0 is the coordinator, on the calling thread; tasks 1..W are the
    // window workers, parked on the barrier until the coordinator closes
    // it. Every worker is joined before teardown.
    const std::size_t tasks = worker_count_ > 1 ? worker_count_ + 1 : 1;
    if (tasks > 1) barrier_.emplace(worker_count_);
    fork_join_each(tasks, tasks, [this](std::size_t task) {
      if (task > 0) return work(static_cast<std::uint32_t>(task - 1));
      run_windows();
      if (barrier_) barrier_->close();
    });
    return teardown();
  }

 private:
  // The window loop: jump to the next event, process the crashes it
  // reaches, route the window's batch and run it.
  void run_windows() {
    std::size_t next_crash = 0;
    TimeMs B = 0.0;
    for (;;) {
      TimeMs t_min = kInf;
      const std::uint32_t arrival =
          ctx_.solo ? shards_[0].next_arrival : next_arrival_;
      if (arrival < n_) t_min = ctx_.arrivals[arrival];
      for (const InboxEntry& t : pending_) t_min = std::min(t_min, t.at);
      if (next_crash < crashes_.size()) {
        t_min = std::min(t_min, crashes_[next_crash].first);
      }
      for (const Shard& s : shards_) t_min = std::min(t_min, s.next_at);
      if (!std::isfinite(t_min)) break;
      B = std::max(B, t_min);  // idle-window jump
      while (next_crash < crashes_.size() && crashes_[next_crash].first <= B) {
        const auto [at, k] = crashes_[next_crash++];
        process_crash(at, k);
      }
      TimeMs window_end = B + width_;  // inf-safe
      if (next_crash < crashes_.size() &&
          crashes_[next_crash].first < window_end) {
        window_end = crashes_[next_crash].first;
      }
      if (!ctx_.solo && !single_window_) route_batch(B, window_end);
      run_window(window_end);
      B = window_end;
      if (!std::isfinite(B)) B = 0.0;  // loop exits via t_min next round
    }
  }

  // Routes one dispatch at barrier time against the published snapshot.
  void route_one(std::uint32_t id, TimeMs at, InboxEntry::Kind kind) {
    ReqState& r = reqs_[id];
    const TimeMs deadline = ctx_.deadline_of(r);
    if (kind == InboxEntry::Kind::kRedispatch && r.has_timeout_ev &&
        deadline <= at) {
      // The transfer was clamped past its deadline (possible only with a
      // jitter-degenerate backoff floor): the request times out at its
      // deadline instead of re-dispatching.
      r.has_timeout_ev = false;
      ++shards_[r.node].tally.timed_out;
      ctx_.note(obs::RecKind::kTimeout, id, r.attempt, deadline, 0.0, r.node);
      r.phase = ReqState::Phase::kDone;
      coord_last_ = std::max(coord_last_, deadline);
      return;
    }
    const std::uint32_t k = router_.pick(snapshot_.data(), node_count_);
    snapshot_.apply_pick(k);
    shards_[k].inbox.push_back(InboxEntry{at, id, kind});
    ++barrier_routed_;
    if (kind == InboxEntry::Kind::kRedispatch) ++transfer_count_;
  }

  // Publishes every node's view for a barrier batch. Stateless policies
  // never read the views, so the (reap + publish) pass is skipped and
  // reaping happens lazily at dispatch, exactly as inside windows.
  void publish_views(TimeMs at) {
    if (!stateful_router_) return;
    for (std::uint32_t k = 0; k < node_count_; ++k) {
      Shard& s = shards_[k];
      reap_node(s, at);
      snapshot_.publish(k, static_cast<std::uint32_t>(s.busy + s.queued_live),
                        static_cast<std::uint32_t>(s.warm.size()));
    }
  }

  // Routes every dispatch whose time falls in [B, window_end): pending
  // transfers merged with the arrival stream in (time, arrivals-first,
  // id) order. Late transfers (clamped) deliver at B.
  void route_batch(TimeMs B, TimeMs window_end) {
    std::sort(pending_.begin(), pending_.end(),
              [](const InboxEntry& a, const InboxEntry& b) {
                return a.at != b.at ? a.at < b.at : a.id < b.id;
              });
    publish_views(B);
    std::size_t p = 0;
    while (true) {
      const TimeMs a_at =
          next_arrival_ < n_ ? ctx_.arrivals[next_arrival_] : kInf;
      const TimeMs p_at =
          p < pending_.size() ? std::max(pending_[p].at, B) : kInf;
      if (a_at < window_end && a_at <= p_at) {
        route_one(next_arrival_, a_at, InboxEntry::Kind::kNew);
        ++next_arrival_;
      } else if (p_at < window_end) {
        route_one(pending_[p].id, p_at, InboxEntry::Kind::kRedispatch);
        ++p;
      } else {
        break;
      }
    }
    pending_.erase(pending_.begin(), pending_.begin() + p);
  }

  // Single-window fast path: with the whole run routed in one batch,
  // per-node inbox and log reservations can be exact, so the parallel
  // phase allocates nothing. (A lone node routes nothing: it reads the
  // arrival stream and folds its deltas directly.)
  void pre_route_single_window() {
    std::vector<std::uint32_t> batch_picks;
    batch_picks.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) {
      batch_picks.push_back(router_.pick(snapshot_.data(), node_count_));
      snapshot_.apply_pick(batch_picks.back());
    }
    std::vector<std::size_t> routed_k(node_count_, 0);
    for (const std::uint32_t k : batch_picks) ++routed_k[k];
    for (std::uint32_t k = 0; k < node_count_; ++k) {
      shards_[k].inbox.reserve(routed_k[k]);
      // live+/- (<= 2 per cold start <= 2x routed), queue+/- and one
      // latency per dispatch: 5x routed bounds the whole-run log.
      shards_[k].log.reserve(5 * routed_k[k] + 16);
    }
    for (std::uint32_t i = 0; i < n_; ++i) {
      Shard& s = shards_[batch_picks[i]];
      s.inbox.push_back(
          InboxEntry{ctx_.arrivals[i], i, InboxEntry::Kind::kNew});
      s.next_at = std::min(s.next_at, ctx_.arrivals[i]);
      ++barrier_routed_;
    }
    next_arrival_ = static_cast<std::uint32_t>(n_);
  }

  void drain_outbox(Shard& s) {
    pending_.insert(pending_.end(), s.outbox.begin(), s.outbox.end());
    s.outbox.clear();
  }

  // Merges every shard's window log into the trajectory in (time, node)
  // order. K-way merge through a (time, node) min-heap — O(E log K), not
  // O(E * K), so the serial barrier work stays a small fraction of the
  // windows it merges.
  void merge_logs() {
    const std::greater<> after{};  // std heaps are max-heaps: invert
    for (std::uint32_t k = 0; k < node_count_; ++k) {
      const std::vector<LogEntry>& log = shards_[k].log;
      if (!log.empty()) merge_heap_.emplace_back(log.front().at, k, 0);
    }
    std::make_heap(merge_heap_.begin(), merge_heap_.end(), after);
    while (!merge_heap_.empty()) {
      std::pop_heap(merge_heap_.begin(), merge_heap_.end(), after);
      const auto [at, k, i] = merge_heap_.back();
      merge_heap_.pop_back();
      const std::vector<LogEntry>& log = shards_[k].log;
      if (i + 1 < log.size()) {
        merge_heap_.emplace_back(log[i + 1].at, k, i + 1);
        std::push_heap(merge_heap_.begin(), merge_heap_.end(), after);
      }
      trajectory_.fold(at, log[i].kind, log[i].value);
    }
    for (Shard& s : shards_) s.log.clear();
  }

  // Node crash at its statically-known time: fail the in-flight attempts
  // (ascending id), drain the warm pool, re-route the queue — all before
  // the next window opens (crash-first tie order). Every delta folds
  // straight into the trajectory: all logs are empty at a barrier.
  void process_crash(TimeMs at, std::uint32_t k) {
    Shard& s = shards_[k];
    account(s, at);  // s.last_event >= at from here on
    ++s.result.node_crashes;
    if (ctx_.tracer) {
      ctx_.tracer->instant_at("fault.node_crash", "fault", obs::kVirtualPid,
                              ctx_.request_track, at,
                              {{"node", static_cast<double>(k)},
                               {"victims", static_cast<double>(s.busy)}});
    }
    if (ctx_.recorder) {
      ctx_.recorder->record(obs::RecKind::kNodeCrash, 0, 0, at,
                            static_cast<double>(s.busy),
                            static_cast<std::int32_t>(k));
    }
    for (std::uint32_t victim = 0; victim < static_cast<std::uint32_t>(n_);
         ++victim) {
      ReqState& r = reqs_[victim];
      if (r.phase != ReqState::Phase::kRunning || r.node != k) continue;
      s.events.cancel(r.pending_ev);
      --s.busy;
      --s.live;
      trajectory_.fold(at, LogEntry::Kind::kLiveDown, 0.0);
      count_fault(s, FaultKind::kNodeCrash, victim, r.attempt, at,
                  static_cast<double>(k));
      fail_attempt(s, victim, at, 0.0);
    }
    // The victims' retries join the pending batch, which route_batch
    // sorts by (time, id): where they land in it does not matter.
    drain_outbox(s);
    // The warm pool dies with the node.
    while (!s.warm.empty()) {
      s.warm.pop_front();
      --s.live;
      trajectory_.fold(at, LogEntry::Kind::kLiveDown, 0.0);
    }
    // Queued requests go back through the router at the crash time; the
    // node itself restarts immediately (cold), so the router may well
    // pick it again. Their timeouts travel with them. A lone node takes
    // its queue back in order, as retries at the crash time on its own
    // heap, with the timeouts left armed.
    publish_views(at);
    while (const auto qid = take_queued(s)) {
      trajectory_.fold(at, LogEntry::Kind::kQueueDown, 0.0);
      ReqState& r = reqs_[*qid];
      if (ctx_.solo) {
        r.phase = ReqState::Phase::kBackoff;
        r.pending_ev = s.events.schedule(
            at, ClusterEvent{ClusterEvent::Kind::kRetry, *qid});
        continue;
      }
      transfer_timeout(s, r);
      route_one(*qid, at, InboxEntry::Kind::kRedispatch);
    }
  }

  // A window worker's loop: run the shards it owns (node % workers == w)
  // through each published window until the barrier closes.
  void work(std::uint32_t w) {
    std::uint64_t seen = 0;
    double window_end = 0.0;
    while (barrier_->wait_open(&seen, &window_end)) {
      for (std::uint32_t k = w; k < node_count_;
           k += static_cast<std::uint32_t>(worker_count_)) {
        process_window(shards_[k], window_end);
      }
      barrier_->report_done();
    }
  }

  // Hands the window to the workers only when its routed batch pays for
  // the barrier; otherwise the coordinator runs every shard inline while
  // the workers stay parked (they take the barrier mutex before touching
  // any shard, so inline windows are race-free).
  void run_window(TimeMs window_end) {
    std::size_t batch = 0;
    for (const Shard& s : shards_) batch += s.inbox.size();
    const bool fan_out = batch >= kFanOutMinDispatches;
    if (fan_out) ++fanout_windows_;
    if (barrier_ && fan_out) {
      barrier_->open(window_end);
      barrier_->wait_done();
    } else {
      for (Shard& s : shards_) process_window(s, window_end);
    }
    ++window_count_;
    for (Shard& s : shards_) drain_outbox(s);
    merge_logs();
  }

  // Deterministic fold in node order.
  ClusterResult teardown() {
    const ClusterConfig& config = ctx_.config;
    ClusterResult result;
    result.offered = n_;
    result.request_id_base = ctx_.id_base;
    result.node_results.resize(node_count_);
    decltype(Tally::faults) faults{};  // summed over the shards
    double busy_area = 0.0;
    TimeMs last_event = coord_last_;
    for (std::uint32_t k = 0; k < node_count_; ++k) {
      const Shard& s = shards_[k];
      busy_area += s.busy_area;
      last_event = std::max(last_event, s.last_event);
      result.node_results[k] = s.result;
      result.completed += s.result.completed;
      result.cold_starts += s.result.cold_starts;
      result.node_crashes += s.result.node_crashes;
      result.failed += s.tally.failed;
      result.retried += s.tally.retried;
      result.timed_out += s.tally.timed_out;
      result.dropped += s.tally.dropped;
      for (std::size_t i = 0; i < faults.size(); ++i) {
        faults[i] += s.tally.faults[i];
      }
    }
    result.peak_instances = trajectory_.peak_instances;
    result.peak_queue = trajectory_.peak_queue;

    // Streaming accumulator and latency histogram, both in the merged
    // (time, node) completion order (deterministic: virtual time);
    // run_batch merges the accumulators across seeds.
    std::vector<double>& latencies = trajectory_.latencies;
    for (const double latency : latencies) result.latency_stats.add(latency);
    obs::MetricsRegistry* metrics = config.metrics;
    if (metrics) {
      metrics->histogram("cluster.e2e_latency_ms").observe(latencies);
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
          .inc(static_cast<std::int64_t>(result.cold_starts));
      for (const FaultKind kind : kInjectedFaults) {
        count_injected(*metrics, kind,
                       static_cast<std::int64_t>(
                           faults[static_cast<std::size_t>(kind)]));
      }
      metrics->counter("chiron.retry.attempts")
          .inc(static_cast<std::int64_t>(result.retried));
      metrics->counter("chiron.request.timeout")
          .inc(static_cast<std::int64_t>(result.timed_out));
      // Queue-depth gauges are replayed: high-water = the peak, final
      // value = the (empty) end-of-run depth — what setting them at every
      // queue change would have left.
      for (std::uint32_t k = 0; k < node_count_; ++k) {
        const Shard& s = shards_[k];
        const std::string node = "cluster.node." + std::to_string(k);
        metrics->counter(node + ".cold_starts")
            .inc(static_cast<std::int64_t>(s.result.cold_starts));
        obs::Gauge& depth = metrics->gauge(node + ".queue_depth");
        depth.set(static_cast<double>(s.result.peak_queue));
        depth.set(static_cast<double>(s.queued_live));
      }
      obs::Gauge& qg = metrics->gauge("cluster.queue_depth");
      qg.set(static_cast<double>(result.peak_queue));
      qg.set(static_cast<double>(trajectory_.queued_now));
      metrics->gauge("cluster.peak_instances")
          .set(static_cast<double>(result.peak_instances));
      // Engine introspection: window/transfer volume for the obs endpoint.
      metrics->counter("cluster.sim.windows")
          .inc(static_cast<std::int64_t>(window_count_));
      metrics->counter("cluster.sim.fanout_windows")
          .inc(static_cast<std::int64_t>(fanout_windows_));
      metrics->counter("cluster.sim.transfers")
          .inc(static_cast<std::int64_t>(transfer_count_));
      metrics->counter("cluster.sim.barrier_routed")
          .inc(static_cast<std::int64_t>(barrier_routed_));
    }

    CHIRON_LOG(kDebug) << "cluster sim windowed (" << node_count_
                       << " nodes, " << to_string(config.router) << ", "
                       << worker_count_ << " threads, " << window_count_
                       << " windows (" << fanout_windows_ << " fanned out), "
                       << transfer_count_ << " transfers): "
                       << result.completed << "/" << result.offered
                       << " requests, " << result.cold_starts
                       << " cold starts, " << result.failed << " faults, "
                       << result.retried << " retries, " << result.timed_out
                       << " timeouts, " << result.dropped
                       << " drops, peak queue " << result.peak_queue << ", "
                       << result.node_crashes << " node crashes";
    return result;
  }

  const std::uint32_t node_count_;
  const std::size_t n_;
  bool stateful_router_ = false;
  bool single_window_ = false;
  TimeMs width_ = kInf;  ///< the window width the config allows
  Router router_;
  RouterSnapshot snapshot_;
  /// Node crashes as (time, node), known statically and sorted: each is
  /// a window cut processed at its barrier.
  std::vector<std::pair<TimeMs, std::uint32_t>> crashes_;
  std::vector<Shard> shards_;
  std::vector<InboxEntry> pending_;  ///< undelivered cross-node dispatches
  /// The coordinator's cursor over the arrivals it routes (a lone node's
  /// shard keeps its own).
  std::uint32_t next_arrival_ = 0;
  Trajectory trajectory_;
  /// The k-way merge's heap: (time, node, index) of each shard's next
  /// log entry, at most one per shard, so (time, node) decides.
  std::vector<std::tuple<TimeMs, std::uint32_t, std::size_t>> merge_heap_;
  TimeMs coord_last_ = 0.0;  ///< latest late timeout the coordinator fired
  std::size_t window_count_ = 0;
  std::size_t fanout_windows_ = 0;
  std::size_t transfer_count_ = 0;
  std::size_t barrier_routed_ = 0;
  std::size_t worker_count_ = 1;
  std::optional<sim::WindowBarrier> barrier_;
};

}  // namespace

ClusterResult run_prepared_windowed(const ClusterConfig& config,
                                    const RuntimeParams& params,
                                    const Backend& backend,
                                    std::size_t cascading_stages,
                                    const std::vector<TimeMs>& arrival_times,
                                    std::uint64_t id_base) {
  // Every arrival cursor reads the stream in order, so it must be sorted
  // (ArrivalGenerator::generate's output is).
  if (!std::is_sorted(arrival_times.begin(), arrival_times.end())) {
    throw std::invalid_argument(
        "ClusterSimulator::run_prepared: arrival_times must be sorted");
  }
  obs::Tracer* const tracer =
      config.tracer && config.tracer->enabled() ? config.tracer : nullptr;
  const RunContext ctx{
      .config = config,
      .backend = backend,
      .injector = FaultInjector(config.faults),
      .cold_penalty = cold_start_penalty(params, cascading_stages),
      .per_node_capacity = node_capacity(backend.resources(), params),
      .id_base = id_base,
      .arrivals = arrival_times,
      .solo = config.nodes == 1,
      .tracer = tracer,
      .request_track =
          tracer ? tracer->new_track("cluster.requests", obs::kVirtualPid) : 0,
      .recorder = config.recorder && config.recorder->enabled()
                      ? config.recorder
                      : nullptr};
  return WindowedEngine(ctx).run();
}

}  // namespace cluster_detail
}  // namespace chiron

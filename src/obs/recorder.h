// FlightRecorder — the always-on half of the observability layer: a
// fixed-capacity ring buffer of compact structured events that is cheap
// enough to leave enabled while serving production traffic.
//
// Unlike the Tracer (rich string-y Chrome events, intended for bounded
// diagnostic runs), the recorder stores fixed-size PODs in one
// reserved ring: recording is one relaxed atomic load (when
// disabled), or one lock plus a 48-byte slot write (when enabled). When
// the ring wraps, the oldest event is overwritten and the drop is counted
// — memory is bounded by construction, and recorded == snapshot + dropped
// always holds.
//
// Events carry a request id and attempt number, so the full causal
// timeline of any request (admission → attempts → faults/retries →
// terminal state) is reconstructible from one dump via timeline().
// Dumps happen on demand (dump()/write()), automatically on an SLO breach
// (arm_auto_dump + auto_dump, wired into Chiron::replan_if_degraded), and
// best-effort from a fatal-signal handler (install_signal_dump) for
// post-mortems.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace chiron::obs {

/// What happened. One request's lifecycle is kAdmit, then per attempt
/// possibly kQueue/kColdStart/kServiceBegin plus fault events, and exactly
/// one terminal kComplete / kTimeout / kDrop.
enum class RecKind : std::uint8_t {
  kAdmit,           ///< request admitted (span id minted)
  kQueue,           ///< queued for capacity; value = queue depth
  kColdStart,       ///< instance launched; value = cold penalty ms
  kServiceBegin,    ///< attempt placed on an instance; value = service ms
  kComplete,        ///< terminal: served; value = e2e latency ms
  kFaultColdStart,  ///< injected sandbox boot failure
  kFaultCrash,      ///< injected mid-run crash
  kFaultStraggler,  ///< injected straggler; value = dilation multiplier
  kRetryBackoff,    ///< retry scheduled; value = backoff ms
  kTimeout,         ///< terminal: deadline hit
  kDrop,            ///< terminal: attempts exhausted
  kExecBegin,       ///< live engine started a task batch; value = tasks
  kExecEnd,         ///< live engine finished; value = makespan ms
  kSloBreach,       ///< SloMonitor violation observed; value = p95 ms
  kReplan,          ///< degradation replan issued; value = inflation
  kMark,            ///< free-form marker (examples, tests)
  kNodeCrash,       ///< node crashed (node-scoped: value = victims, or
                    ///< request-scoped: one per failed in-flight attempt)
};

/// Stable short name ("admit", "complete", "fault.crash", ...).
const char* to_string(RecKind kind);

/// One compact recorder event (fixed-size; no heap).
struct RecorderEvent {
  double ts_ms = 0.0;        ///< wall ms since recorder epoch, or sim time
  double value = 0.0;        ///< kind-specific payload (see RecKind)
  std::uint64_t seq = 0;     ///< record order: the recorder's write index
  std::uint64_t request = 0; ///< request/trace id; 0 = not request-scoped
  std::uint32_t attempt = 0; ///< 1-based attempt, or task index; 0 = n/a
  std::int32_t node = -1;    ///< cluster node id; -1 = not node-scoped
  RecKind kind = RecKind::kMark;
};

/// Mints `n` consecutive process-unique request ids and returns the first
/// (ids start at 1; 0 means "no request"). The cluster simulator calls
/// this once per run so two concurrent or sequential runs never alias
/// request ids in the shared recorder/tracer.
std::uint64_t mint_request_ids(std::uint64_t n);

/// Fixed-capacity ring buffer of RecorderEvents.
class FlightRecorder {
 public:
  /// `capacity` is the event budget (at least one slot). All slots are
  /// reserved here — record() never allocates — but a slot's memory is
  /// first touched when an event is written to it.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// The process-wide recorder instrumented library code reports to.
  static FlightRecorder& global();

  /// Recording is off by default; a disabled recorder costs one relaxed
  /// atomic load per record() call.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Re-sizes the ring (drops everything recorded so far).
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Records one event. `ts_ms` is caller-supplied so virtual-time
  /// simulators can stamp simulated clocks; wall-clock callers pass
  /// now_ms(). `node` tags events from sharded cluster runs with the
  /// serving node id (-1 = not node-scoped). Oldest events are
  /// overwritten when the ring is full.
  void record(RecKind kind, std::uint64_t request, std::uint32_t attempt,
              double ts_ms, double value = 0.0, std::int32_t node = -1);

  /// Wall-clock milliseconds since this recorder's epoch (steady clock).
  double now_ms() const;

  std::uint64_t recorded_count() const;  ///< events accepted (incl. dropped)
  std::uint64_t dropped_count() const;   ///< events overwritten by wraps

  /// All retained events in record order (ascending seq).
  std::vector<RecorderEvent> snapshot() const;

  /// The retained events of one request, sorted by (ts_ms, seq) — its
  /// causal timeline. The timestamp is the primary key so timelines from
  /// concurrent writers (whose global seq order interleaves arbitrarily
  /// across simulated time) still read in causal order; seq breaks
  /// same-timestamp ties in record order.
  std::vector<RecorderEvent> timeline(std::uint64_t request) const;

  /// {"events": [...], "recorded": N, "dropped": N, "capacity": N}.
  json::Value to_json() const;
  std::string dump() const;  ///< compact JSON text of to_json()

  /// Writes the dump to `path`; logs through CHIRON_LOG. False on I/O
  /// failure.
  bool write(const std::string& path) const;

  /// Publishes chiron.recorder.{recorded,dropped,capacity} gauges to the
  /// global MetricsRegistry (called before /metrics scrapes).
  void publish_metrics() const;

  /// Arms automatic dumping: the next auto_dump() call writes to `path`.
  /// An empty path disarms.
  void arm_auto_dump(std::string path);
  /// Dumps to the armed path (e.g. on an SLO breach). Returns false when
  /// disarmed or the write failed. Each dump overwrites the previous one,
  /// so the file always holds the most recent breach context.
  bool auto_dump();
  std::uint64_t auto_dumps() const {
    return auto_dumps_.load(std::memory_order_relaxed);
  }

  /// Installs a fatal-signal handler (SEGV/ABRT/BUS/FPE/ILL) that writes
  /// this recorder's events to `path` as JSON-lines before re-raising.
  /// Best effort and lock-free by necessity (the process is dying): a
  /// concurrently-written slot may serialise torn. Only one recorder per
  /// process can be the post-mortem target; later calls re-point it.
  /// Call after the final set_capacity() — the handler snapshots the ring
  /// storage address at install time.
  void install_signal_dump(const std::string& path);

  /// Drops all recorded events and resets the counters.
  void clear();

 private:
  static constexpr std::size_t kDefaultCapacity = 65536;

  void snapshot_into(std::vector<RecorderEvent>& out) const;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> auto_dumps_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  ///< guards cap_, ring_ and written_
  std::size_t cap_ = 1;    ///< slots reserved by set_capacity()
  /// The written slots only: grows to cap_, then wraps. Its storage is
  /// reserved once per set_capacity(), so data() never moves between.
  std::vector<RecorderEvent> ring_;
  std::uint64_t written_ = 0;  ///< total writes; slot = written_ % cap_
  mutable std::mutex config_mu_;  ///< guards auto_dump_path_
  std::string auto_dump_path_;
};

}  // namespace chiron::obs

// Chrome-trace span recorder — the timeline half of the observability
// layer. Records RAII scoped spans, instant events, async request spans,
// and counter samples from any number of threads, on two clock domains:
//
//   * wall-clock tracks (pid kWallPid): the live engine, the local runner,
//     and Chiron::deploy stamp events with a shared steady-clock epoch;
//     each OS thread gets its own track lazily.
//   * virtual-time tracks (pid kVirtualPid): EventQueue-driven simulators
//     stamp events with *simulated* milliseconds via the *_at primitives.
//
// Export is Chrome trace-event JSON (via the repo's own chiron::json),
// loadable in Perfetto / chrome://tracing:  Tracer::global() is the
// conventional instance; instrumented code guards on enabled() so a
// disabled tracer costs one relaxed atomic load per site.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/json.h"

namespace chiron::obs {

/// Chrome trace process ids: one per clock domain.
inline constexpr int kWallPid = 1;     ///< wall-clock (steady_clock) events
inline constexpr int kVirtualPid = 2;  ///< simulated-time events

/// One trace-event record (a subset of the Chrome trace-event format).
/// Every member has a default initializer, so a primitive names only the
/// fields its phase sets.
struct TraceEvent {
  std::string name{};
  std::string category{};
  char phase = 'X';  ///< 'B','E','X','i','C','b','e','M'
  int pid = kWallPid;
  int tid = 0;
  double ts_us = 0.0;   ///< microseconds (wall: since epoch; virtual: sim time)
  double dur_us = 0.0;  ///< 'X' events only
  std::uint64_t id = 0; ///< 'b'/'e' async pairing id
  bool has_id = false;
  std::vector<std::pair<std::string, double>> num_args{};
};

/// Thread-safe span/event recorder.
class Tracer {
 public:
  Tracer();

  /// The process-wide tracer that instrumented library code reports to.
  static Tracer& global();

  /// Recording is off by default; a disabled tracer drops every event.
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Caps retained events: once `cap` events are held the oldest is
  /// dropped per new record (and counted — see dropped_count() and the
  /// chiron.trace.dropped counter in the global MetricsRegistry), so a
  /// long-lived traced run can no longer grow memory without bound.
  /// 0 (the default) = unbounded, the historical batch-dump behaviour.
  void set_max_events(std::size_t cap);
  std::size_t max_events() const;

  /// Events evicted by the max_events cap since construction/clear().
  std::uint64_t dropped_count() const;

  /// Wall-clock milliseconds since this tracer's epoch (steady clock).
  double now_ms() const;

  /// Track id of the calling thread (assigned on first use).
  int thread_track();

  /// Names the calling thread's track (Perfetto shows it as the row label).
  void name_thread(const std::string& name);

  /// Allocates a fresh named track, e.g. one per emulated interpreter or
  /// one per virtual-time actor. Track ids never repeat across pids.
  int new_track(const std::string& name, int pid = kWallPid);

  // --- Wall-clock primitives (calling thread's track) -------------------
  void begin(const std::string& name, const std::string& category = {},
             std::vector<std::pair<std::string, double>> num_args = {});
  void end(const std::string& name);
  void instant(const std::string& name, const std::string& category = {},
               std::vector<std::pair<std::string, double>> num_args = {});

  // --- Explicit-timestamp primitives (virtual time, or cross-thread) ---
  /// A complete span ('X'): ts + duration in one record.
  void complete_at(const std::string& name, const std::string& category,
                   int pid, int tid, double ts_ms, double dur_ms,
                   std::vector<std::pair<std::string, double>> num_args = {});
  void instant_at(const std::string& name, const std::string& category,
                  int pid, int tid, double ts_ms,
                  std::vector<std::pair<std::string, double>> num_args = {});
  /// A counter sample ('C'); Perfetto renders these as a stepped graph.
  void counter_at(const std::string& name, double value, int pid, int tid,
                  double ts_ms);
  /// Async begin/end ('b'/'e'): overlapping operations (e.g. in-flight
  /// requests) paired by `id` rather than by stack nesting.
  void async_begin_at(const std::string& name, const std::string& category,
                      int pid, int tid, double ts_ms, std::uint64_t id);
  void async_end_at(const std::string& name, const std::string& category,
                    int pid, int tid, double ts_ms, std::uint64_t id);

  std::size_t event_count() const;
  std::vector<TraceEvent> events() const;  ///< snapshot copy

  /// {"traceEvents": [...], "displayTimeUnit": "ms"} with process/thread
  /// metadata records prepended.
  json::Value to_json() const;
  std::string dump() const;  ///< compact JSON text of to_json()

  /// Writes the Chrome trace JSON to `path`; logs the outcome through
  /// CHIRON_LOG. Returns false (and logs kError) on I/O failure.
  bool write(const std::string& path) const;

  /// Drops recorded events and track registrations (epoch is kept so
  /// timestamps stay monotone across clears).
  void clear();

 private:
  /// The one write path of every primitive: drops `ev` when disabled;
  /// with `caller_track` (the wall-clock primitives) stamps it with
  /// now_ms() before taking the lock and with the calling thread's track
  /// under it; then appends it under the max_events cap.
  void emit(TraceEvent ev, bool caller_track = false);
  int thread_track_locked();  ///< requires mu_ held

  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<TraceEvent> events_;  ///< deque: the cap drops from the front
  std::size_t max_events_ = 0;     ///< 0 = unbounded
  std::uint64_t dropped_ = 0;
  std::map<std::thread::id, int> thread_tracks_;
  std::map<int, std::pair<int, std::string>> track_names_;  // tid -> {pid, name}
  int next_track_ = 0;
};

/// RAII span: begin on construction, end on destruction. When the tracer
/// is disabled at construction the span is inert.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::string category = {},
             std::vector<std::pair<std::string, double>> num_args = {})
      : tracer_(tracer.enabled() ? &tracer : nullptr),
        name_(std::move(name)) {
    if (tracer_) tracer_->begin(name_, category, std::move(num_args));
  }
  ~ScopedSpan() {
    if (tracer_) tracer_->end(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::string name_;
};

}  // namespace chiron::obs

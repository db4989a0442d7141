#include "obs/recorder.h"

#include <algorithm>
#include <csignal>
#include <cstdio>

#include <fcntl.h>
#include <unistd.h>

#include "common/log.h"
#include "obs/metrics.h"

namespace chiron::obs {

const char* to_string(RecKind kind) {
  switch (kind) {
    case RecKind::kAdmit: return "admit";
    case RecKind::kQueue: return "queue";
    case RecKind::kColdStart: return "cold_start";
    case RecKind::kServiceBegin: return "service_begin";
    case RecKind::kComplete: return "complete";
    case RecKind::kFaultColdStart: return "fault.cold_start";
    case RecKind::kFaultCrash: return "fault.crash";
    case RecKind::kFaultStraggler: return "fault.straggler";
    case RecKind::kRetryBackoff: return "retry.backoff";
    case RecKind::kTimeout: return "timeout";
    case RecKind::kDrop: return "drop";
    case RecKind::kExecBegin: return "exec.begin";
    case RecKind::kExecEnd: return "exec.end";
    case RecKind::kSloBreach: return "slo.breach";
    case RecKind::kReplan: return "replan";
    case RecKind::kMark: return "mark";
    case RecKind::kNodeCrash: return "node_crash";
  }
  return "?";
}

std::uint64_t mint_request_ids(std::uint64_t n) {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(n, std::memory_order_relaxed);
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : epoch_(std::chrono::steady_clock::now()) {
  set_capacity(capacity);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::set_capacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  // Reserved, not sized: record() appends until the ring is full, so a
  // slot's page is first written when an event lands in it.
  cap_ = std::max<std::size_t>(1, capacity);
  std::vector<RecorderEvent>().swap(ring_);
  ring_.reserve(cap_);
  written_ = 0;
}

std::size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cap_;
}

double FlightRecorder::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void FlightRecorder::record(RecKind kind, std::uint64_t request,
                            std::uint32_t attempt, double ts_ms,
                            double value, std::int32_t node) {
  if (!enabled()) return;
  RecorderEvent ev;
  ev.ts_ms = ts_ms;
  ev.value = value;
  ev.request = request;
  ev.attempt = attempt;
  ev.node = node;
  ev.kind = kind;
  std::lock_guard<std::mutex> lock(mu_);
  ev.seq = written_;
  if (ring_.size() < cap_) {
    ring_.push_back(ev);
  } else {
    ring_[written_ % cap_] = ev;
  }
  ++written_;
}

std::uint64_t FlightRecorder::recorded_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_;
}

std::uint64_t FlightRecorder::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return written_ > cap_ ? written_ - cap_ : 0;
}

void FlightRecorder::snapshot_into(std::vector<RecorderEvent>& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  // ring_ holds exactly the written slots. Once wrapped, the oldest
  // retained event sits at the next write slot; reading forward from it
  // yields ascending seq.
  const auto split =
      static_cast<std::ptrdiff_t>(written_ > cap_ ? written_ % cap_ : 0);
  out.insert(out.end(), ring_.begin() + split, ring_.end());
  out.insert(out.end(), ring_.begin(), ring_.begin() + split);
}

std::vector<RecorderEvent> FlightRecorder::snapshot() const {
  std::vector<RecorderEvent> out;
  snapshot_into(out);
  return out;
}

std::vector<RecorderEvent> FlightRecorder::timeline(
    std::uint64_t request) const {
  std::vector<RecorderEvent> all;
  snapshot_into(all);
  std::vector<RecorderEvent> out;
  for (const RecorderEvent& ev : all) {
    if (ev.request == request) out.push_back(ev);
  }
  // Causal order: simulated/wall time first, record order for ties.
  // Concurrent writers take seqs in wall-clock race order, so seq alone
  // is not a causal key across threads — ts_ms is.
  std::sort(out.begin(), out.end(),
            [](const RecorderEvent& a, const RecorderEvent& b) {
              return a.ts_ms != b.ts_ms ? a.ts_ms < b.ts_ms : a.seq < b.seq;
            });
  return out;
}

namespace {

json::Value event_to_json(const RecorderEvent& ev) {
  json::Object o;
  o["ts_ms"] = json::Value(ev.ts_ms);
  o["seq"] = json::Value(static_cast<double>(ev.seq));
  o["kind"] = json::Value(std::string(to_string(ev.kind)));
  if (ev.request != 0) {
    o["request"] = json::Value(static_cast<double>(ev.request));
  }
  if (ev.attempt != 0) {
    o["attempt"] = json::Value(static_cast<double>(ev.attempt));
  }
  if (ev.node >= 0) {
    o["node"] = json::Value(static_cast<double>(ev.node));
  }
  o["value"] = json::Value(ev.value);
  return json::Value(std::move(o));
}

}  // namespace

json::Value FlightRecorder::to_json() const {
  std::vector<RecorderEvent> events;
  snapshot_into(events);
  json::Array arr;
  arr.reserve(events.size());
  for (const RecorderEvent& ev : events) arr.push_back(event_to_json(ev));
  json::Object root;
  root["events"] = json::Value(std::move(arr));
  root["recorded"] = json::Value(static_cast<double>(recorded_count()));
  root["dropped"] = json::Value(static_cast<double>(dropped_count()));
  root["capacity"] = json::Value(static_cast<double>(capacity()));
  return json::Value(std::move(root));
}

std::string FlightRecorder::dump() const { return json::dump(to_json()); }

bool FlightRecorder::write(const std::string& path) const {
  if (!json::write_file(path, to_json(), "recorder")) return false;
  CHIRON_LOG(kInfo) << "recorder: wrote " << recorded_count() - dropped_count()
                    << " events to " << path << " (" << dropped_count()
                    << " dropped)";
  return true;
}

void FlightRecorder::publish_metrics() const {
  MetricsRegistry& m = MetricsRegistry::global();
  m.gauge("chiron.recorder.recorded")
      .set(static_cast<double>(recorded_count()));
  m.gauge("chiron.recorder.dropped")
      .set(static_cast<double>(dropped_count()));
  m.gauge("chiron.recorder.capacity").set(static_cast<double>(capacity()));
}

void FlightRecorder::arm_auto_dump(std::string path) {
  std::lock_guard<std::mutex> lock(config_mu_);
  auto_dump_path_ = std::move(path);
}

bool FlightRecorder::auto_dump() {
  std::string path;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    path = auto_dump_path_;
  }
  if (path.empty()) return false;
  if (!write(path)) return false;
  auto_dumps_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void FlightRecorder::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ring_.clear();  // keeps the reservation: data() does not move
  written_ = 0;
}

// --- fatal-signal post-mortem dump ------------------------------------------
//
// Everything below runs inside a signal handler, so it is restricted to
// async-signal-safe calls: open/write/close and snprintf into stack
// buffers. The recorder's ring is read without locking — the process is
// crashing, and a rare torn slot beats losing the whole black box.

namespace {

char g_signal_path[512] = {0};
// The handler needs the ring; FlightRecorder grants access by passing a
// plain view at install time (no locks are taken in the handler).
struct SignalView {
  const RecorderEvent* ring = nullptr;
  std::size_t ring_size = 0;
  const std::uint64_t* written = nullptr;
};
SignalView g_signal_view;

void signal_dump_handler(int signo) {
  const int fd = ::open(g_signal_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    char line[256];
    int n = std::snprintf(line, sizeof(line),
                          "{\"signal\": %d, \"recorder_dump\": true}\n",
                          signo);
    if (n > 0) (void)!::write(fd, line, static_cast<std::size_t>(n));
    if (g_signal_view.ring) {
      const std::uint64_t written = *g_signal_view.written;
      const std::size_t size = g_signal_view.ring_size;
      // Oldest retained event first, as in snapshot().
      const std::uint64_t first = written > size ? written - size : 0;
      for (std::uint64_t i = first; i < written; ++i) {
        const RecorderEvent& ev = g_signal_view.ring[i % size];
        n = std::snprintf(
            line, sizeof(line),
            "{\"ts_ms\": %.3f, \"seq\": %llu, \"kind\": \"%s\", "
            "\"request\": %llu, \"attempt\": %u, \"node\": %d, "
            "\"value\": %.6g}\n",
            ev.ts_ms, static_cast<unsigned long long>(ev.seq),
            to_string(ev.kind), static_cast<unsigned long long>(ev.request),
            ev.attempt, ev.node, ev.value);
        if (n > 0) (void)!::write(fd, line, static_cast<std::size_t>(n));
      }
    }
    ::close(fd);
  }
  // Restore the default disposition and re-raise so the crash still
  // produces its normal core/termination status.
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}

}  // namespace

void FlightRecorder::install_signal_dump(const std::string& path) {
  std::snprintf(g_signal_path, sizeof(g_signal_path), "%s", path.c_str());
  g_signal_view.ring = ring_.data();
  g_signal_view.ring_size = cap_;
  g_signal_view.written = &written_;
  for (int signo : {SIGSEGV, SIGABRT, SIGBUS, SIGFPE, SIGILL}) {
    std::signal(signo, signal_dump_handler);
  }
}

}  // namespace chiron::obs

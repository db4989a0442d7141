#include "obs/trace.h"

#include "common/log.h"
#include "obs/metrics.h"

namespace chiron::obs {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  static Tracer tracer;
  return tracer;
}

double Tracer::now_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int Tracer::thread_track_locked() {
  const std::thread::id self = std::this_thread::get_id();
  auto it = thread_tracks_.find(self);
  if (it != thread_tracks_.end()) return it->second;
  const int tid = next_track_++;
  thread_tracks_[self] = tid;
  track_names_[tid] = {kWallPid, "thread-" + std::to_string(tid)};
  return tid;
}

int Tracer::thread_track() {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_track_locked();
}

void Tracer::name_thread(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = thread_track_locked();
  track_names_[tid] = {kWallPid, name};
}

int Tracer::new_track(const std::string& name, int pid) {
  std::lock_guard<std::mutex> lock(mu_);
  const int tid = next_track_++;
  track_names_[tid] = {pid, name};
  return tid;
}

void Tracer::set_max_events(std::size_t cap) {
  std::lock_guard<std::mutex> lock(mu_);
  max_events_ = cap;
  while (cap != 0 && events_.size() > cap) {
    events_.pop_front();
    ++dropped_;
  }
}

std::size_t Tracer::max_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_events_;
}

std::uint64_t Tracer::dropped_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Tracer::emit(TraceEvent ev, bool caller_track) {
  if (!enabled()) return;
  if (caller_track) ev.ts_us = now_ms() * 1000.0;
  std::lock_guard<std::mutex> lock(mu_);
  if (caller_track) ev.tid = thread_track_locked();
  if (max_events_ != 0 && events_.size() >= max_events_) {
    events_.pop_front();
    ++dropped_;
    MetricsRegistry::global().counter("chiron.trace.dropped").inc();
  }
  events_.push_back(std::move(ev));
}

void Tracer::begin(const std::string& name, const std::string& category,
                   std::vector<std::pair<std::string, double>> num_args) {
  emit({.name = name, .category = category, .phase = 'B',
        .num_args = std::move(num_args)},
       true);
}

void Tracer::end(const std::string& name) {
  emit({.name = name, .phase = 'E'}, true);
}

void Tracer::instant(const std::string& name, const std::string& category,
                     std::vector<std::pair<std::string, double>> num_args) {
  emit({.name = name, .category = category, .phase = 'i',
        .num_args = std::move(num_args)},
       true);
}

void Tracer::complete_at(const std::string& name, const std::string& category,
                         int pid, int tid, double ts_ms, double dur_ms,
                         std::vector<std::pair<std::string, double>> num_args) {
  emit({.name = name, .category = category, .phase = 'X', .pid = pid,
        .tid = tid, .ts_us = ts_ms * 1000.0, .dur_us = dur_ms * 1000.0,
        .num_args = std::move(num_args)});
}

void Tracer::instant_at(const std::string& name, const std::string& category,
                        int pid, int tid, double ts_ms,
                        std::vector<std::pair<std::string, double>> num_args) {
  emit({.name = name, .category = category, .phase = 'i', .pid = pid,
        .tid = tid, .ts_us = ts_ms * 1000.0,
        .num_args = std::move(num_args)});
}

void Tracer::counter_at(const std::string& name, double value, int pid,
                        int tid, double ts_ms) {
  emit({.name = name, .phase = 'C', .pid = pid, .tid = tid,
        .ts_us = ts_ms * 1000.0, .num_args = {{"value", value}}});
}

void Tracer::async_begin_at(const std::string& name,
                            const std::string& category, int pid, int tid,
                            double ts_ms, std::uint64_t id) {
  emit({.name = name, .category = category.empty() ? "async" : category,
        .phase = 'b', .pid = pid, .tid = tid, .ts_us = ts_ms * 1000.0,
        .id = id, .has_id = true});
}

void Tracer::async_end_at(const std::string& name, const std::string& category,
                          int pid, int tid, double ts_ms, std::uint64_t id) {
  emit({.name = name, .category = category.empty() ? "async" : category,
        .phase = 'e', .pid = pid, .tid = tid, .ts_us = ts_ms * 1000.0,
        .id = id, .has_id = true});
}

std::size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {events_.begin(), events_.end()};
}

namespace {

json::Value event_to_json(const TraceEvent& ev) {
  json::Object o;
  o["name"] = json::Value(ev.name);
  if (!ev.category.empty()) o["cat"] = json::Value(ev.category);
  o["ph"] = json::Value(std::string(1, ev.phase));
  o["pid"] = json::Value(static_cast<double>(ev.pid));
  o["tid"] = json::Value(static_cast<double>(ev.tid));
  o["ts"] = json::Value(ev.ts_us);
  if (ev.phase == 'X') o["dur"] = json::Value(ev.dur_us);
  if (ev.has_id) o["id"] = json::Value(static_cast<double>(ev.id));
  if (!ev.num_args.empty()) {
    json::Object args;
    for (const auto& [k, v] : ev.num_args) args[k] = json::Value(v);
    o["args"] = json::Value(std::move(args));
  }
  return json::Value(std::move(o));
}

json::Value metadata_event(const std::string& name, int pid, int tid,
                           const std::string& label) {
  json::Object o;
  o["name"] = json::Value(name);
  o["ph"] = json::Value(std::string("M"));
  o["pid"] = json::Value(static_cast<double>(pid));
  o["tid"] = json::Value(static_cast<double>(tid));
  o["ts"] = json::Value(0.0);
  json::Object args;
  args["name"] = json::Value(label);
  o["args"] = json::Value(std::move(args));
  return json::Value(std::move(o));
}

}  // namespace

json::Value Tracer::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Array trace_events;
  trace_events.reserve(events_.size() + track_names_.size() + 2);
  trace_events.push_back(
      metadata_event("process_name", kWallPid, 0, "wall-clock"));
  trace_events.push_back(
      metadata_event("process_name", kVirtualPid, 0, "virtual-time"));
  for (const auto& [tid, named] : track_names_) {
    trace_events.push_back(
        metadata_event("thread_name", named.first, tid, named.second));
  }
  for (const TraceEvent& ev : events_) {
    trace_events.push_back(event_to_json(ev));
  }
  json::Object root;
  root["traceEvents"] = json::Value(std::move(trace_events));
  root["displayTimeUnit"] = json::Value(std::string("ms"));
  return json::Value(std::move(root));
}

std::string Tracer::dump() const { return json::dump(to_json()); }

bool Tracer::write(const std::string& path) const {
  if (!json::write_file(path, to_json(), "tracer")) return false;
  CHIRON_LOG(kInfo) << "tracer: wrote " << event_count() << " events to "
                    << path << " (open in Perfetto / chrome://tracing)";
  return true;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  dropped_ = 0;
  thread_tracks_.clear();
  track_names_.clear();
  next_track_ = 0;
}

}  // namespace chiron::obs

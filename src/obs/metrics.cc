#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <stdexcept>

namespace chiron::obs {

void Gauge::set(double v) {
  value_.store(v, std::memory_order_relaxed);
  raise_high_water(v);
}

void Gauge::add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
  raise_high_water(current + delta);
}

void Gauge::raise_high_water(double v) {
  double hw = high_water_.load(std::memory_order_relaxed);
  while (v > hw && !high_water_.compare_exchange_weak(
                       hw, v, std::memory_order_relaxed)) {
  }
}

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
  if (bounds_.empty()) {
    throw std::invalid_argument("histogram needs at least one bound");
  }
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument("histogram bounds must be strictly ascending");
  }
}

std::vector<double> Histogram::default_latency_bounds_ms() {
  return {1.0,   2.0,   5.0,   10.0,   20.0,   50.0,  100.0,
          200.0, 500.0, 1000.0, 2000.0, 5000.0, 10000.0};
}

std::size_t Histogram::bucket_of(double x) const {
  // lower_bound: bucket i counts bounds[i-1] < x <= bounds[i], matching
  // the inclusive-upper-bound (`le`) semantics of Prometheus histograms.
  return static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), x) - bounds_.begin());
}

void Histogram::observe(double x) {
  const std::size_t bucket = bucket_of(x);
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket];
  stats_.add(x);
}

void Histogram::observe(std::span<const double> xs) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const double x : xs) {
    ++buckets_[bucket_of(x)];
    stats_.add(x);
  }
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  snap.bounds = bounds_;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.buckets = buckets_;
    snap.stats = stats_;
  }
  snap.count = snap.stats.count();
  snap.sum = snap.stats.mean() * static_cast<double>(snap.stats.count());
  return snap;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = Histogram::default_latency_bounds_ms();
    slot = std::make_unique<Histogram>(std::move(bounds));
  }
  return *slot;
}

json::Value MetricsRegistry::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Object counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = json::Value(static_cast<double>(c->value()));
  }
  json::Object gauges;
  for (const auto& [name, g] : gauges_) {
    json::Object o;
    o["value"] = json::Value(g->value());
    o["high_water"] = json::Value(g->high_water());
    gauges[name] = json::Value(std::move(o));
  }
  json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot snap = h->snapshot();
    json::Object o;
    o["count"] = json::Value(static_cast<double>(snap.count));
    o["sum"] = json::Value(snap.sum);
    o["mean"] = json::Value(snap.stats.mean());
    o["min"] = json::Value(snap.stats.min());
    o["max"] = json::Value(snap.stats.max());
    o["stddev"] = json::Value(snap.stats.stddev());
    json::Array bounds;
    for (double b : snap.bounds) bounds.push_back(json::Value(b));
    o["bounds"] = json::Value(std::move(bounds));
    json::Array buckets;
    for (std::uint64_t b : snap.buckets) {
      buckets.push_back(json::Value(static_cast<double>(b)));
    }
    o["buckets"] = json::Value(std::move(buckets));
    histograms[name] = json::Value(std::move(o));
  }
  json::Object root;
  root["counters"] = json::Value(std::move(counters));
  root["gauges"] = json::Value(std::move(gauges));
  root["histograms"] = json::Value(std::move(histograms));
  return json::Value(std::move(root));
}

namespace {

// Prometheus metric names allow [a-zA-Z0-9_:]; dots and dashes map to '_'.
std::string sanitize(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != ':') {
      c = '_';
    }
  }
  if (!out.empty() && std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  return out;
}

std::string format_double(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

}  // namespace

std::string MetricsRegistry::to_prometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    const std::string n = sanitize(name);
    out << "# TYPE " << n << " counter\n";
    out << n << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    const std::string n = sanitize(name);
    out << "# TYPE " << n << " gauge\n";
    out << n << " " << format_double(g->value()) << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    const std::string n = sanitize(name);
    const HistogramSnapshot snap = h->snapshot();
    out << "# TYPE " << n << " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < snap.bounds.size(); ++i) {
      cumulative += snap.buckets[i];
      out << n << "_bucket{le=\"" << format_double(snap.bounds[i]) << "\"} "
          << cumulative << "\n";
    }
    cumulative += snap.buckets.back();
    out << n << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
    out << n << "_sum " << format_double(snap.sum) << "\n";
    out << n << "_count " << snap.count << "\n";
  }
  return out.str();
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

}  // namespace chiron::obs

// MetricsRegistry — the aggregate half of the observability layer: named
// counters, gauges, and fixed-boundary latency histograms, exported as
// JSON (chiron::json) or Prometheus text exposition format.
//
// Counters and gauges are single atomics; a histogram guards its buckets
// and RunningStats with one lock. Metric objects are created on first use
// and live as long as the registry, so callers may cache the returned
// references.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "metrics/stats.h"

namespace chiron::obs {

/// Monotonically increasing integer counter.
class Counter {
 public:
  void inc(std::int64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Last-written double value with a high-water mark.
class Gauge {
 public:
  void set(double v);
  void add(double delta);
  double value() const { return value_.load(std::memory_order_relaxed); }
  /// Largest value ever set (e.g. peak queue depth).
  double high_water() const {
    return high_water_.load(std::memory_order_relaxed);
  }

 private:
  void raise_high_water(double v);
  std::atomic<double> value_{0.0};
  std::atomic<double> high_water_{0.0};
};

/// Read-time view of a histogram: per-bucket counts plus moments.
struct HistogramSnapshot {
  std::vector<double> bounds;          ///< inclusive upper bounds, ascending
  std::vector<std::uint64_t> buckets;  ///< bounds.size()+1 (last = overflow)
  RunningStats stats;                  ///< min/mean/max/stddev over samples
  std::uint64_t count = 0;
  double sum = 0.0;
};

/// Fixed-boundary histogram, safe for concurrent observe().
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending (upper bounds in
  /// the unit of the observed quantity; an implicit +inf bucket is added).
  explicit Histogram(std::vector<double> bounds);

  void observe(double x);
  /// Observes every element in order under one lock: the same snapshot as
  /// calling observe(x) for each.
  void observe(std::span<const double> xs);
  HistogramSnapshot snapshot() const;
  const std::vector<double>& bounds() const { return bounds_; }

  /// 1 ms .. 10 s log-ish latency boundaries used when none are given.
  static std::vector<double> default_latency_bounds_ms();

 private:
  std::size_t bucket_of(double x) const;

  std::vector<double> bounds_;
  mutable std::mutex mu_;               ///< guards buckets_ and stats_
  std::vector<std::uint64_t> buckets_;  ///< bounds_.size()+1
  RunningStats stats_;
};

/// Named metric store with get-or-create semantics.
class MetricsRegistry {
 public:
  /// The process-wide registry instrumented library code reports to.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `bounds` is only consulted on first creation; pass {} for the
  /// default latency boundaries.
  Histogram& histogram(const std::string& name,
                       std::vector<double> bounds = {});

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  json::Value to_json() const;
  /// Prometheus text exposition format (names sanitised to [a-z0-9_]).
  std::string to_prometheus() const;

  /// Drops every metric. Outstanding references become dangling — only
  /// call between measurement phases (tests do, between cases).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace chiron::obs

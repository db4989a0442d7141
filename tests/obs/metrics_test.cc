#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <regex>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"

namespace chiron::obs {
namespace {

TEST(CounterTest, ConcurrentIncrementsAllLand) {
  MetricsRegistry registry;
  Counter& c = registry.counter("hits");
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&c] {
      for (int j = 0; j < kIncrements; ++j) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::int64_t>(kThreads) * kIncrements);
}

TEST(GaugeTest, SetAddAndHighWater) {
  Gauge g;
  g.set(3.0);
  g.add(2.0);
  EXPECT_DOUBLE_EQ(g.value(), 5.0);
  g.set(1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.0);
  EXPECT_DOUBLE_EQ(g.high_water(), 5.0);
}

TEST(HistogramTest, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({3.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(HistogramTest, BucketsAndMomentsAreExact) {
  Histogram h({10.0, 20.0, 50.0});
  for (double x : {1.0, 9.0, 10.0, 15.0, 40.0, 60.0, 100.0}) h.observe(x);
  const HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 3u);  // <= 10
  EXPECT_EQ(snap.buckets[1], 1u);  // (10, 20]
  EXPECT_EQ(snap.buckets[2], 1u);  // (20, 50]
  EXPECT_EQ(snap.buckets[3], 2u);  // > 50
  EXPECT_EQ(snap.count, 7u);
  EXPECT_DOUBLE_EQ(snap.stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(snap.stats.max(), 100.0);
  EXPECT_NEAR(snap.sum, 235.0, 1e-9);
}

TEST(HistogramTest, SpanObserveMatchesElementWise) {
  // One lock for the whole span must leave the snapshot bit-for-bit what
  // observing each element in turn leaves, bounds-equal values included.
  const std::vector<double> bounds = Histogram::default_latency_bounds_ms();
  std::vector<double> xs = bounds;
  for (int i = 0; i < 1000; ++i) xs.push_back(0.37 * i * i / (1.0 + i % 7));
  Histogram each(bounds);
  for (const double x : xs) each.observe(x);
  Histogram span(bounds);
  span.observe(std::span<const double>());  // an empty span adds nothing
  span.observe(xs);
  const HistogramSnapshot a = each.snapshot();
  const HistogramSnapshot b = span.snapshot();
  EXPECT_EQ(a.buckets, b.buckets);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.count, xs.size());
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.stats.min(), b.stats.min());
  EXPECT_EQ(a.stats.max(), b.stats.max());
  EXPECT_EQ(a.stats.mean(), b.stats.mean());
  EXPECT_EQ(a.stats.stddev(), b.stats.stddev());
}

TEST(HistogramTest, ConcurrentObserversLoseNothing) {
  Histogram h({0.5});
  constexpr int kThreads = 8;
  constexpr int kSamples = 5000;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&h, i] {
      for (int j = 0; j < kSamples; ++j) {
        h.observe(static_cast<double>(i));  // thread 0 under, rest over
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kSamples);
  EXPECT_EQ(snap.buckets[0], static_cast<std::uint64_t>(kSamples));
  EXPECT_EQ(snap.buckets[1],
            static_cast<std::uint64_t>(kThreads - 1) * kSamples);
  // Every thread's samples land in the exact global moments.
  EXPECT_DOUBLE_EQ(snap.stats.min(), 0.0);
  EXPECT_DOUBLE_EQ(snap.stats.max(), static_cast<double>(kThreads - 1));
  EXPECT_NEAR(snap.stats.mean(), 3.5, 1e-9);
}

TEST(MetricsRegistryTest, GetOrCreateReturnsStableObjects) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x");
  a.inc(5);
  EXPECT_EQ(&registry.counter("x"), &a);
  EXPECT_EQ(registry.counter("x").value(), 5);
  Histogram& h = registry.histogram("lat", {1.0, 2.0});
  EXPECT_EQ(&registry.histogram("lat"), &h);  // bounds ignored on reuse
}

TEST(MetricsRegistryTest, JsonExportParsesAndMatches) {
  MetricsRegistry registry;
  registry.counter("requests.total").inc(3);
  registry.gauge("queue.depth").set(4.0);
  registry.histogram("latency.ms", {10.0, 100.0}).observe(42.0);

  const json::Value doc = json::parse(json::dump(registry.to_json()));
  EXPECT_DOUBLE_EQ(doc.at("counters").at("requests.total").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("queue.depth").at("value").as_number(),
                   4.0);
  const json::Value& h = doc.at("histograms").at("latency.ms");
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(h.at("buckets").as_array()[1].as_number(), 1.0);
}

TEST(MetricsRegistryTest, PrometheusExportHasExpectedShape) {
  MetricsRegistry registry;
  registry.counter("chiron.deploy.count").inc(2);
  registry.gauge("cluster.queue-depth").set(1.5);
  Histogram& h = registry.histogram("e2e", {10.0, 100.0});
  h.observe(5.0);
  h.observe(50.0);
  h.observe(500.0);

  const std::string text = registry.to_prometheus();
  // Dots and dashes sanitised; TYPE lines present; cumulative buckets.
  EXPECT_NE(text.find("# TYPE chiron_deploy_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("chiron_deploy_count 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cluster_queue_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("e2e_bucket{le=\"10\"} 1"), std::string::npos);
  EXPECT_NE(text.find("e2e_bucket{le=\"100\"} 2"), std::string::npos);
  EXPECT_NE(text.find("e2e_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("e2e_count 3"), std::string::npos);
}

TEST(MetricsRegistryTest, PrometheusExpositionMatchesFormatGrammar) {
  // Pins the text exposition format line-by-line: every line is either a
  // `# TYPE`/`# HELP` comment or a `name[{labels}] value` sample with a
  // sanitised ([a-zA-Z_:][a-zA-Z0-9_:]*) metric name, and histogram
  // bucket counts are cumulative up to +Inf == _count.
  MetricsRegistry registry;
  registry.counter("chiron.obs.scrapes").inc(7);
  registry.gauge("9starts-with-digit").set(-0.5);
  Histogram& h = registry.histogram("deploy.latency.ms", {1.0, 10.0, 100.0});
  for (double x : {0.5, 5.0, 5.0, 50.0, 5000.0}) h.observe(x);

  const std::regex comment_re(
      R"re(^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$)re");
  const std::regex sample_re(
      R"re(^[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="([0-9eE.+-]+|\+Inf)"\})? )re"
      R"re(-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$)re");

  const std::string text = registry.to_prometheus();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');  // exposition ends with a newline
  std::istringstream lines(text);
  std::string line;
  std::uint64_t last_bucket = 0;
  bool saw_inf = false, saw_sum = false, saw_count = false;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_TRUE(std::regex_match(line, comment_re)) << line;
      continue;
    }
    EXPECT_TRUE(std::regex_match(line, sample_re)) << line;
    if (line.rfind("deploy_latency_ms_bucket", 0) == 0) {
      const std::uint64_t n =
          std::stoull(line.substr(line.rfind(' ') + 1));
      EXPECT_GE(n, last_bucket) << "buckets must be cumulative: " << line;
      last_bucket = n;
      if (line.find("le=\"+Inf\"") != std::string::npos) {
        saw_inf = true;
        EXPECT_EQ(n, 5u);  // +Inf bucket counts every observation
      }
    }
    if (line.rfind("deploy_latency_ms_sum ", 0) == 0) saw_sum = true;
    if (line.rfind("deploy_latency_ms_count 5", 0) == 0) saw_count = true;
  }
  EXPECT_TRUE(saw_inf);
  EXPECT_TRUE(saw_sum);
  EXPECT_TRUE(saw_count);
  // Leading digits are prefixed so the name stays grammar-legal.
  EXPECT_NE(text.find("_9starts_with_digit"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetDropsEverything) {
  MetricsRegistry registry;
  registry.counter("a").inc();
  registry.reset();
  EXPECT_EQ(registry.counter("a").value(), 0);
}

}  // namespace
}  // namespace chiron::obs

#include "obs/obs_server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/json.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace chiron::obs {
namespace {

// Blocking one-shot HTTP GET against 127.0.0.1:port; returns the raw
// response (headers + body), or "" on connect failure.
std::string http_get(int port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  (void)!::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string()
                                    : response.substr(split + 4);
}

TEST(ObsServerTest, RouterServesEveryEndpoint) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("hello", "test");
  MetricsRegistry metrics;
  metrics.counter("chiron.test.requests").inc(3);
  FlightRecorder recorder(64);
  recorder.set_enabled(true);
  recorder.record(RecKind::kAdmit, 5, 1, 1.0);
  recorder.record(RecKind::kComplete, 5, 1, 2.0, 1.0);

  ObsServerConfig config;
  config.tracer = &tracer;
  config.metrics = &metrics;
  config.recorder = &recorder;
  const ObsServer server(config);

  EXPECT_EQ(server.handle("/healthz").status, 200);
  EXPECT_EQ(server.handle("/healthz").body, "ok\n");

  const ObsResponse prom = server.handle("/metrics");
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.body.find("chiron_test_requests 3"), std::string::npos);

  const ObsResponse mjson = server.handle("/metrics.json");
  EXPECT_EQ(mjson.status, 200);
  const json::Value metrics_doc = json::parse(mjson.body);
  EXPECT_DOUBLE_EQ(
      metrics_doc.at("counters").at("chiron.test.requests").as_number(), 3.0);

  const ObsResponse trace = server.handle("/trace");
  EXPECT_EQ(trace.status, 200);
  EXPECT_EQ(trace.content_type, "application/json");
  const json::Value trace_doc = json::parse(trace.body);
  EXPECT_TRUE(trace_doc.at("traceEvents").is_array());

  const ObsResponse rec = server.handle("/recorder");
  EXPECT_EQ(rec.status, 200);
  const json::Value rec_doc = json::parse(rec.body);
  EXPECT_EQ(rec_doc.at("events").as_array().size(), 2u);

  const ObsResponse timeline = server.handle("/recorder?request=5");
  EXPECT_EQ(timeline.status, 200);
  const json::Value tl_doc = json::parse(timeline.body);
  EXPECT_DOUBLE_EQ(tl_doc.at("request").as_number(), 5.0);
  EXPECT_EQ(tl_doc.at("events").as_array().size(), 2u);
  EXPECT_EQ(tl_doc.at("events").as_array()[0].at("kind").as_string(),
            "admit");

  EXPECT_EQ(server.handle("/recorder?request=bogus").status, 400);
  EXPECT_EQ(server.handle("/nope").status, 404);
}

TEST(ObsServerTest, NullSinksAnswer404) {
  const ObsServer server(ObsServerConfig{});
  EXPECT_EQ(server.handle("/metrics").status, 404);
  EXPECT_EQ(server.handle("/metrics.json").status, 404);
  EXPECT_EQ(server.handle("/trace").status, 404);
  EXPECT_EQ(server.handle("/recorder").status, 404);
  EXPECT_EQ(server.handle("/healthz").status, 200);  // liveness needs no sinks
}

TEST(ObsServerTest, ServesHttpOverLoopback) {
  MetricsRegistry metrics;
  metrics.counter("chiron.live.counter").inc();
  FlightRecorder recorder(64);
  recorder.set_enabled(true);
  recorder.record(RecKind::kAdmit, 1, 1, 0.0);

  ObsServerConfig config;
  config.port = 0;  // ephemeral
  config.metrics = &metrics;
  config.recorder = &recorder;
  ObsServer server(config);
  ASSERT_TRUE(server.start());
  ASSERT_GT(server.port(), 0);

  const std::string health = http_get(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  const std::string prom = http_get(server.port(), "/metrics");
  EXPECT_NE(prom.find("chiron_live_counter 1"), std::string::npos);

  const std::string rec = http_get(server.port(), "/recorder");
  const json::Value doc = json::parse(body_of(rec));
  EXPECT_EQ(doc.at("events").as_array().size(), 1u);

  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  EXPECT_TRUE(http_get(server.port(), "/healthz").empty());
}

TEST(ObsServerTest, LargeRecorderPayloadRoundTripsIntact) {
  // Regression: send() on loopback returns short writes for multi-MB
  // bodies; a serve loop that fired send() once truncated the JSON
  // mid-flight. Fill the recorder until /recorder weighs megabytes and
  // assert the body parses and carries every event.
  // The recorder is sized well past the 100k events, so none is dropped.
  FlightRecorder recorder(800000);
  recorder.set_enabled(true);
  for (std::uint64_t i = 0; i < 100000; ++i) {
    recorder.record(RecKind::kMark, i + 1, 1,
                    static_cast<double>(i) * 0.001, 42.0,
                    static_cast<std::int32_t>(i % 8));
  }

  ObsServerConfig config;
  config.recorder = &recorder;
  ObsServer server(config);
  ASSERT_TRUE(server.start());

  const std::string raw = http_get(server.port(), "/recorder");
  const std::string body = body_of(raw);
  EXPECT_GT(body.size(), 2u * 1024u * 1024u);  // genuinely multi-MB
  // Content-Length must match what actually arrived.
  const std::size_t cl = raw.find("Content-Length: ");
  ASSERT_NE(cl, std::string::npos);
  EXPECT_EQ(std::stoull(raw.substr(cl + 16)), body.size());
  const json::Value doc = json::parse(body);
  EXPECT_EQ(doc.at("events").as_array().size(), 100000u);
  server.stop();
}

TEST(ObsServerTest, ConcurrentScrapesWhileWritersHammerSinks) {
  // The TSan-relevant case: scrapes serialize registry/recorder snapshots
  // while writer threads mutate them.
  MetricsRegistry metrics;
  FlightRecorder recorder(512);
  recorder.set_enabled(true);

  ObsServerConfig config;
  config.metrics = &metrics;
  config.recorder = &recorder;
  ObsServer server(config);
  ASSERT_TRUE(server.start());

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&, w] {
      std::uint64_t i = 0;
      while (!stop.load()) {
        metrics.counter("chiron.hammer").inc();
        metrics.histogram("chiron.hammer_ms").observe(static_cast<double>(
            (i * 7 + static_cast<std::uint64_t>(w)) % 100));
        recorder.record(RecKind::kMark, static_cast<std::uint64_t>(w) + 1,
                        static_cast<std::uint32_t>(i % 1000), 0.0);
        ++i;
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    const std::string prom = http_get(server.port(), "/metrics");
    EXPECT_NE(prom.find("200 OK"), std::string::npos);
    const std::string rec = http_get(server.port(), "/recorder");
    EXPECT_TRUE(json::parse(body_of(rec)).at("events").is_array());
  }
  stop.store(true);
  for (std::thread& t : writers) t.join();
  server.stop();
}

}  // namespace
}  // namespace chiron::obs

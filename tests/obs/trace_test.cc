#include "obs/trace.h"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "common/json.h"

namespace chiron::obs {
namespace {

// Collects the non-metadata events of a parsed trace document.
std::vector<const json::Value*> payload_events(const json::Value& doc) {
  std::vector<const json::Value*> out;
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() != "M") out.push_back(&ev);
  }
  return out;
}

TEST(TracerTest, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.begin("a");
  tracer.end("a");
  tracer.instant("b");
  tracer.complete_at("c", "cat", kVirtualPid, 0, 1.0, 2.0);
  tracer.counter_at("d", 1.0, kVirtualPid, 0, 1.0);
  EXPECT_EQ(tracer.event_count(), 0u);
}

TEST(TracerTest, EveryPrimitiveStampsItsFields) {
  Tracer tracer;
  tracer.set_enabled(true);
  const int own = tracer.thread_track();
  const int track = tracer.new_track("virtual", kVirtualPid);
  tracer.begin("begin", "wall", {{"k", 1.0}});
  tracer.end("begin");
  tracer.instant("instant", "wall");
  tracer.complete_at("complete", "sim", kVirtualPid, track, 1.0, 2.5);
  tracer.instant_at("instant_at", "sim", kVirtualPid, track, 2.0);
  tracer.counter_at("counter", 7.0, kVirtualPid, track, 3.0);
  tracer.async_begin_at("async", "", kVirtualPid, track, 4.0, 42);
  tracer.async_end_at("async", "", kVirtualPid, track, 5.0, 42);

  using Args = std::vector<std::pair<std::string, double>>;
  struct Want {
    char phase;
    int pid;
    int tid;
    std::string category;
    double ts_us;  // < 0: stamped from the tracer's clock
    Args args;
  };
  const std::vector<Want> want = {
      {'B', kWallPid, own, "wall", -1.0, {{"k", 1.0}}},
      {'E', kWallPid, own, "", -1.0, {}},
      {'i', kWallPid, own, "wall", -1.0, {}},
      {'X', kVirtualPid, track, "sim", 1000.0, {}},
      {'i', kVirtualPid, track, "sim", 2000.0, {}},
      {'C', kVirtualPid, track, "", 3000.0, {{"value", 7.0}}},
      {'b', kVirtualPid, track, "async", 4000.0, {}},
      {'e', kVirtualPid, track, "async", 5000.0, {}},
  };
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), want.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& ev = events[i];
    SCOPED_TRACE(ev.name);
    EXPECT_EQ(ev.phase, want[i].phase);
    EXPECT_EQ(ev.pid, want[i].pid);
    EXPECT_EQ(ev.tid, want[i].tid);
    EXPECT_EQ(ev.category, want[i].category);
    if (want[i].ts_us < 0.0) {
      EXPECT_GE(ev.ts_us, 0.0);
    } else {
      EXPECT_EQ(ev.ts_us, want[i].ts_us);
    }
    EXPECT_EQ(ev.dur_us, ev.phase == 'X' ? 2500.0 : 0.0);
    const bool async = ev.phase == 'b' || ev.phase == 'e';
    EXPECT_EQ(ev.has_id, async);
    EXPECT_EQ(ev.id, async ? 42u : 0u);
    EXPECT_EQ(ev.num_args, want[i].args);
  }
}

TEST(TracerTest, ScopedSpansBalanceAndNest) {
  Tracer tracer;
  tracer.set_enabled(true);
  {
    ScopedSpan outer(tracer, "outer", "test");
    ScopedSpan inner(tracer, "inner", "test");
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'B');
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].phase, 'B');
  // Destruction order: inner closes before outer.
  EXPECT_EQ(events[2].name, "inner");
  EXPECT_EQ(events[2].phase, 'E');
  EXPECT_EQ(events[3].name, "outer");
  EXPECT_EQ(events[3].phase, 'E');
  // All on one track, timestamps monotone.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].tid, events[0].tid);
    EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
  }
}

TEST(TracerTest, JsonRoundTripsThroughChironJson) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.name_thread("main");
  {
    ScopedSpan span(tracer, "work", "test", {{"items", 3.0}});
    tracer.instant("checkpoint", "test");
  }
  tracer.complete_at("virtual-span", "sim", kVirtualPid, 7, 10.0, 5.0);
  tracer.counter_at("depth", 2.0, kVirtualPid, 0, 11.0);

  const json::Value doc = json::parse(tracer.dump());
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
  const auto events = payload_events(doc);
  ASSERT_EQ(events.size(), 5u);

  // The virtual-time span survives with its simulated timestamps in us.
  const json::Value* vspan = nullptr;
  for (const json::Value* ev : events) {
    if (ev->at("name").as_string() == "virtual-span") vspan = ev;
  }
  ASSERT_NE(vspan, nullptr);
  EXPECT_EQ(vspan->at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(vspan->at("ts").as_number(), 10000.0);
  EXPECT_DOUBLE_EQ(vspan->at("dur").as_number(), 5000.0);
  EXPECT_DOUBLE_EQ(vspan->at("pid").as_number(), kVirtualPid);
  EXPECT_DOUBLE_EQ(vspan->at("tid").as_number(), 7.0);

  // Thread metadata carries the registered name.
  bool found_name = false;
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() == "M" &&
        ev.at("name").as_string() == "thread_name" &&
        ev.at("args").at("name").as_string() == "main") {
      found_name = true;
    }
  }
  EXPECT_TRUE(found_name);
}

TEST(TracerTest, ThreadsGetDistinctTracks) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer] {
      ScopedSpan span(tracer, "per-thread", "test");
    });
  }
  for (std::thread& t : threads) t.join();

  std::map<int, int> begins_per_track;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.phase == 'B') ++begins_per_track[ev.tid];
  }
  EXPECT_EQ(begins_per_track.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, begins] : begins_per_track) EXPECT_EQ(begins, 1);
}

TEST(TracerTest, ConcurrentRecordingIsBalancedPerTrack) {
  Tracer tracer;
  tracer.set_enabled(true);
  constexpr int kThreads = 8;
  constexpr int kSpans = 200;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer] {
      for (int j = 0; j < kSpans; ++j) {
        ScopedSpan span(tracer, "span", "stress");
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Per track: alternating B/E, monotone timestamps.
  std::map<int, int> depth;
  std::map<int, double> last_ts;
  for (const TraceEvent& ev : tracer.events()) {
    if (ev.phase == 'B') {
      ++depth[ev.tid];
    } else if (ev.phase == 'E') {
      --depth[ev.tid];
      EXPECT_GE(depth[ev.tid], 0);
    }
    auto it = last_ts.find(ev.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ev.ts_us, it->second);
    }
    last_ts[ev.tid] = ev.ts_us;
  }
  for (const auto& [tid, d] : depth) EXPECT_EQ(d, 0);
  EXPECT_EQ(tracer.event_count(),
            static_cast<std::size_t>(kThreads * kSpans * 2));
}

TEST(TracerTest, AsyncEventsPairById) {
  Tracer tracer;
  tracer.set_enabled(true);
  const int track = tracer.new_track("requests", kVirtualPid);
  tracer.async_begin_at("request", "sim", kVirtualPid, track, 0.0, 42);
  tracer.async_begin_at("request", "sim", kVirtualPid, track, 1.0, 43);
  tracer.async_end_at("request", "sim", kVirtualPid, track, 5.0, 42);
  tracer.async_end_at("request", "sim", kVirtualPid, track, 6.0, 43);

  const json::Value doc = json::parse(tracer.dump());
  std::map<double, int> per_id;  // id -> begin - end balance
  for (const json::Value& ev : doc.at("traceEvents").as_array()) {
    const std::string ph = ev.at("ph").as_string();
    if (ph == "b") ++per_id[ev.at("id").as_number()];
    if (ph == "e") --per_id[ev.at("id").as_number()];
  }
  ASSERT_EQ(per_id.size(), 2u);
  for (const auto& [id, balance] : per_id) EXPECT_EQ(balance, 0);
}

TEST(TracerTest, BoundedTracerDropsOldestAndCounts) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_max_events(4);
  EXPECT_EQ(tracer.max_events(), 4u);
  for (int i = 0; i < 10; ++i) {
    tracer.instant("ev" + std::to_string(i), "test");
  }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.dropped_count(), 6u);
  // Oldest-dropped: the survivors are the last four records.
  EXPECT_EQ(events.front().name, "ev6");
  EXPECT_EQ(events.back().name, "ev9");
  // The dump is still a valid trace document.
  const json::Value doc = json::parse(tracer.dump());
  EXPECT_EQ(payload_events(doc).size(), 4u);
  tracer.clear();
  EXPECT_EQ(tracer.dropped_count(), 0u);
  EXPECT_EQ(tracer.max_events(), 4u);  // the cap survives clear()
}

TEST(TracerTest, BoundedTracerConservesCountsUnderConcurrency) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.set_max_events(64);
  constexpr int kThreads = 8;
  constexpr int kEvents = 500;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&tracer] {
      for (int j = 0; j < kEvents; ++j) tracer.instant("e", "stress");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(tracer.event_count(), 64u);
  EXPECT_EQ(tracer.event_count() + tracer.dropped_count(),
            static_cast<std::size_t>(kThreads * kEvents));
}

TEST(TracerTest, ClearDropsEventsButKeepsClockMonotone) {
  Tracer tracer;
  tracer.set_enabled(true);
  tracer.instant("before");
  const double t0 = tracer.now_ms();
  tracer.clear();
  EXPECT_EQ(tracer.event_count(), 0u);
  tracer.instant("after");
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GE(events[0].ts_us, t0 * 1000.0);
}

}  // namespace
}  // namespace chiron::obs

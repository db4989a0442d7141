#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"
#include "support/resident.h"

namespace chiron::obs {
namespace {

std::filesystem::path temp_file(const std::string& name) {
  return std::filesystem::temp_directory_path() / name;
}

TEST(ObsRecorderTest, DisabledRecorderRecordsNothing) {
  FlightRecorder rec(64);
  rec.record(RecKind::kAdmit, 1, 1, 0.0);
  rec.record(RecKind::kComplete, 1, 1, 5.0, 5.0);
  EXPECT_EQ(rec.recorded_count(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
}

TEST(ObsRecorderTest, RecordsInGlobalOrderWithPayloads) {
  FlightRecorder rec(64);
  rec.set_enabled(true);
  rec.record(RecKind::kAdmit, 7, 1, 1.0);
  rec.record(RecKind::kServiceBegin, 7, 1, 2.0, 12.5);
  rec.record(RecKind::kComplete, 7, 1, 14.5, 13.5);
  const std::vector<RecorderEvent> events = rec.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, RecKind::kAdmit);
  EXPECT_EQ(events[1].kind, RecKind::kServiceBegin);
  EXPECT_DOUBLE_EQ(events[1].value, 12.5);
  EXPECT_EQ(events[2].kind, RecKind::kComplete);
  for (const RecorderEvent& ev : events) EXPECT_EQ(ev.request, 7u);
  // seq strictly increasing = global order.
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_LT(events[1].seq, events[2].seq);
}

TEST(ObsRecorderTest, TimelineFiltersOneRequest) {
  FlightRecorder rec(64);
  rec.set_enabled(true);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    rec.record(RecKind::kAdmit, id, 1, static_cast<double>(id));
    rec.record(RecKind::kComplete, id, 1, static_cast<double>(id) + 1.0);
  }
  const std::vector<RecorderEvent> t = rec.timeline(2);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].kind, RecKind::kAdmit);
  EXPECT_EQ(t[1].kind, RecKind::kComplete);
  EXPECT_EQ(t[0].request, 2u);
}

TEST(ObsRecorderTest, ConcurrentWorkersConserveAndTimelinesTimeSort) {
  // The windowed cluster engine's pattern: W persistent workers recording
  // one shared request's events with interleaved simulated timestamps.
  // Conservation must hold exactly (recorded == retained + dropped) and
  // the per-request timeline must come back (ts_ms, seq)-ordered even
  // though the seq order — wall-clock race order across workers —
  // scrambles simulated time.
  constexpr std::size_t kWorkers = 4;
  constexpr std::uint64_t kPerWorker = 400;
  FlightRecorder rec(8192);  // large enough: nothing dropped
  rec.set_enabled(true);
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWorker; ++i) {
        // Worker w stamps times w, w + kWorkers, w + 2*kWorkers, ... so
        // the merged time order interleaves all four workers.
        const double ts = static_cast<double>(i * kWorkers + w);
        rec.record(RecKind::kMark, 42, static_cast<std::uint32_t>(w + 1), ts,
                   ts, static_cast<std::int32_t>(w));
      }
    });
  }
  for (std::thread& t : workers) t.join();

  EXPECT_EQ(rec.recorded_count(), kWorkers * kPerWorker);
  const std::vector<RecorderEvent> kept = rec.snapshot();
  EXPECT_EQ(kept.size() + rec.dropped_count(), kWorkers * kPerWorker);
  EXPECT_EQ(rec.dropped_count(), 0u);

  const std::vector<RecorderEvent> t = rec.timeline(42);
  ASSERT_EQ(t.size(), kWorkers * kPerWorker);
  for (std::size_t i = 1; i < t.size(); ++i) {
    const bool time_ordered =
        t[i - 1].ts_ms < t[i].ts_ms ||
        (t[i - 1].ts_ms == t[i].ts_ms && t[i - 1].seq < t[i].seq);
    ASSERT_TRUE(time_ordered) << "timeline out of order at " << i;
  }
  // The interleave actually happened: consecutive timeline entries come
  // from different workers (ts was constructed i * W + w).
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(t[i].ts_ms, static_cast<double>(i));
  }
}

TEST(ObsRecorderTest, WraparoundDropsOldestAndConservesCounts) {
  // Past capacity the ring overwrites its oldest slot: exactly the 16
  // newest records survive, in record order, and the rest count dropped.
  constexpr std::uint64_t kCapacity = 16;
  FlightRecorder rec(kCapacity);
  rec.set_enabled(true);
  const std::uint64_t total = 100;
  for (std::uint64_t i = 0; i < total; ++i) {
    rec.record(RecKind::kMark, i, 0, static_cast<double>(i));
  }
  EXPECT_EQ(rec.recorded_count(), total);
  EXPECT_EQ(rec.dropped_count(), total - kCapacity);
  const std::vector<RecorderEvent> kept = rec.snapshot();
  ASSERT_EQ(kept.size(), kCapacity);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].request, total - kCapacity + i);
    EXPECT_EQ(kept[i].seq, total - kCapacity + i);
  }
}

TEST(ObsRecorderTest, CapacityIsExactWithOneSlotMinimum) {
  FlightRecorder rec(10);
  EXPECT_EQ(rec.capacity(), 10u);
  rec.set_capacity(1);
  EXPECT_EQ(rec.capacity(), 1u);
  rec.set_capacity(0);  // at least one slot
  EXPECT_EQ(rec.capacity(), 1u);
}

TEST(ObsRecorderTest, ClearResetsEverything) {
  FlightRecorder rec(16);
  rec.set_enabled(true);
  for (int i = 0; i < 40; ++i) rec.record(RecKind::kMark, 1, 0, 0.0);
  rec.clear();
  EXPECT_EQ(rec.recorded_count(), 0u);
  EXPECT_EQ(rec.dropped_count(), 0u);
  EXPECT_TRUE(rec.snapshot().empty());
  // Recording restarts at slot 0: only the new events are read back.
  for (std::uint64_t i = 0; i < 3; ++i) rec.record(RecKind::kMark, 2, 0, 0.0);
  const std::vector<RecorderEvent> after = rec.snapshot();
  ASSERT_EQ(after.size(), 3u);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].request, 2u);
    EXPECT_EQ(after[i].seq, i);
  }
}

TEST(ObsRecorderTest, ArmedStorageIsResidentOnlyWhereWritten) {
  const long before = chiron::testsupport::resident_bytes();
  ASSERT_GE(before, 0) << "/proc/self/statm is not readable";
  // 1 << 22 slots (the largest capacity chironctl accepts) of 48 B is
  // ~200 MB: a fresh mapping whose pages start non-resident.
  constexpr std::size_t kCapacity = std::size_t{1} << 22;
  FlightRecorder rec(kCapacity);
  rec.set_enabled(true);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    rec.record(RecKind::kMark, i + 1, 0, static_cast<double>(i));
  }
  const long grown = chiron::testsupport::resident_bytes() - before;
  EXPECT_LT(grown, 8L << 20) << "arming touched " << (grown >> 20) << " MB";
  EXPECT_EQ(rec.capacity(), kCapacity);
  EXPECT_EQ(rec.dropped_count(), 0u);
  const std::vector<RecorderEvent> kept = rec.snapshot();
  ASSERT_EQ(kept.size(), 1000u);
  EXPECT_EQ(kept.front().request, 1u);
  EXPECT_EQ(kept.back().seq, 999u);
}

TEST(ObsRecorderTest, JsonDumpParsesAndCountsAgree) {
  FlightRecorder rec(64);
  rec.set_enabled(true);
  rec.record(RecKind::kAdmit, 42, 1, 1.0);
  rec.record(RecKind::kFaultCrash, 42, 1, 2.0);
  rec.record(RecKind::kDrop, 42, 2, 3.0);
  const json::Value doc = json::parse(rec.dump());
  EXPECT_DOUBLE_EQ(doc.at("recorded").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(doc.at("dropped").as_number(), 0.0);
  const json::Array& events = doc.at("events").as_array();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].at("kind").as_string(), "fault.crash");
  EXPECT_DOUBLE_EQ(events[1].at("request").as_number(), 42.0);
}

TEST(ObsRecorderTest, MintedRequestIdRangesNeverOverlap) {
  const std::uint64_t a = mint_request_ids(10);
  const std::uint64_t b = mint_request_ids(5);
  const std::uint64_t c = mint_request_ids(1);
  EXPECT_GE(b, a + 10);
  EXPECT_GE(c, b + 5);
  EXPECT_GT(a, 0u);  // 0 means "no request"
}

TEST(ObsRecorderTest, AutoDumpWritesArmedPathOnly) {
  const std::filesystem::path path = temp_file("chiron_rec_autodump.json");
  std::filesystem::remove(path);
  FlightRecorder rec(64);
  rec.set_enabled(true);
  rec.record(RecKind::kSloBreach, 0, 0, 1.0, 123.0);
  EXPECT_FALSE(rec.auto_dump());  // disarmed
  EXPECT_EQ(rec.auto_dumps(), 0u);
  rec.arm_auto_dump(path.string());
  EXPECT_TRUE(rec.auto_dump());
  EXPECT_EQ(rec.auto_dumps(), 1u);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  const json::Value doc = json::parse(text.str());
  EXPECT_EQ(doc.at("events").as_array().size(), 1u);
  EXPECT_EQ(doc.at("events").as_array()[0].at("kind").as_string(),
            "slo.breach");
  std::filesystem::remove(path);
}

TEST(ObsRecorderTest, ConcurrentWritersAndReaderConserveEvents) {
  // N writers hammer the recorder through wraparound while a reader
  // snapshots and JSON-dumps concurrently; afterwards every accepted
  // event is either retained or counted dropped — none lost, none
  // duplicated (seqs are unique).
  FlightRecorder rec(256);
  rec.set_enabled(true);
  constexpr int kWriters = 8;
  constexpr std::uint64_t kPerWriter = 2000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const std::vector<RecorderEvent> snap = rec.snapshot();
      EXPECT_LE(snap.size(), rec.capacity());
      const json::Value doc = json::parse(rec.dump());
      EXPECT_TRUE(doc.at("events").is_array());
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) {
        rec.record(RecKind::kMark, static_cast<std::uint64_t>(w) + 1,
                   static_cast<std::uint32_t>(i), static_cast<double>(i));
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(rec.recorded_count(), kWriters * kPerWriter);
  const std::vector<RecorderEvent> kept = rec.snapshot();
  EXPECT_EQ(kept.size() + rec.dropped_count(), kWriters * kPerWriter);
  std::set<std::uint64_t> seqs;
  for (const RecorderEvent& ev : kept) seqs.insert(ev.seq);
  EXPECT_EQ(seqs.size(), kept.size());  // no duplicated slots
}

TEST(ObsRecorderDeathTest, FatalSignalWritesPostMortemJsonLines) {
  // The post-mortem story: a fatal signal dumps the ring as JSON-lines
  // using only async-signal-safe calls, then re-raises so the process
  // still dies with its normal status.
  const std::filesystem::path path = temp_file("chiron_rec_postmortem.jsonl");
  std::filesystem::remove(path);
  EXPECT_DEATH(
      {
        FlightRecorder rec(64);
        rec.set_enabled(true);
        rec.record(RecKind::kAdmit, 9, 1, 1.0);
        rec.record(RecKind::kFaultCrash, 9, 2, 1.5, 0.5);
        rec.install_signal_dump(path.string());
        std::abort();
      },
      "");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "post-mortem missing at " << path;
  std::string line;
  bool saw_header = false, saw_crash = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const json::Value doc = json::parse(line);  // every line is valid JSON
    (void)doc;
    if (line.find("\"recorder_dump\"") != std::string::npos) saw_header = true;
    if (line.find("\"fault.crash\"") != std::string::npos) saw_crash = true;
  }
  EXPECT_TRUE(saw_header);
  EXPECT_TRUE(saw_crash);
  std::filesystem::remove(path);
}

TEST(ObsRecorderTest, PublishMetricsExportsGauges) {
  FlightRecorder& rec = FlightRecorder::global();
  rec.set_capacity(128);
  rec.set_enabled(true);
  rec.record(RecKind::kMark, 1, 0, 0.0);
  rec.publish_metrics();
  MetricsRegistry& m = MetricsRegistry::global();
  EXPECT_GE(m.gauge("chiron.recorder.recorded").value(), 1.0);
  EXPECT_DOUBLE_EQ(m.gauge("chiron.recorder.capacity").value(), 128.0);
  rec.set_enabled(false);
  rec.clear();
}

}  // namespace
}  // namespace chiron::obs

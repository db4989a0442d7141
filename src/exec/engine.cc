#include "exec/engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/log.h"
#include "exec/emulated_gil.h"
#include "obs/recorder.h"
#include "obs/trace.h"

namespace chiron {
namespace {

using Clock = std::chrono::steady_clock;

double now_ms(Clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(Clock::now() - origin)
      .count();
}

// Work kernel: data-dependent arithmetic the optimiser cannot elide.
// thread_local: every engine thread spins concurrently, and a shared sink
// would be a (benign but TSan-reported) data race.
thread_local volatile double g_spin_sink = 0.0;

double spin_chunk(long iterations) {
  double acc = 1.0;
  for (long i = 0; i < iterations; ++i) {
    acc += 1.0 / static_cast<double>(i * 2 + 1);
  }
  return acc;
}

}  // namespace

double spin_iterations_per_ms() {
  static const double rate = [] {
    // Warm up, then measure a ~20 ms spin.
    g_spin_sink = spin_chunk(200000);
    const long probe = 2000000;
    const auto t0 = Clock::now();
    g_spin_sink = spin_chunk(probe);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    const double measured = static_cast<double>(probe) / std::max(ms, 1e-3);
    CHIRON_LOG(kDebug) << "spin kernel calibrated: "
                       << static_cast<long>(measured) << " iterations/ms";
    return measured;
  }();
  return rate;
}

void spin_for_ms(TimeMs ms) {
  if (ms <= 0.0) return;
  const auto deadline =
      Clock::now() + std::chrono::duration<double, std::milli>(ms);
  // ~5 us of work between deadline checks keeps the overshoot well under
  // 1 % of a millisecond-scale spin while amortising the clock reads.
  const long chunk =
      std::max<long>(200, static_cast<long>(spin_iterations_per_ms() * 0.005));
  while (Clock::now() < deadline) {
    g_spin_sink = spin_chunk(chunk);
  }
}

void spin_with_gil(TimeMs ms, EmulatedGil& gil) {
  TimeMs done = 0.0;
  while (done < ms) {
    const TimeMs step = std::min<TimeMs>(0.2, ms - done);
    spin_for_ms(step);
    done += step;
    if (done < ms && gil.should_yield()) gil.yield();
  }
}

namespace {

InterleaveResult execute(const std::vector<ThreadTask>& tasks,
                         EmulatedGil* gil, std::uint64_t request_id) {
  InterleaveResult result;
  result.tasks.resize(tasks.size());
  std::mutex result_mu;
  const auto origin = Clock::now();

  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  if (recorder.enabled()) {
    recorder.record(obs::RecKind::kExecBegin, request_id, 0,
                    recorder.now_ms(), static_cast<double>(tasks.size()));
  }

  std::vector<std::thread> threads;
  threads.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    threads.emplace_back([&, i] {
      const ThreadTask& task = tasks[i];
      obs::Tracer& tracer = obs::Tracer::global();
      const bool tracing = tracer.enabled();
      if (tracing) {
        tracer.name_thread("task-" + std::to_string(i));
      }
      if (task.ready_ms > 0.0) {
        std::this_thread::sleep_until(
            origin + std::chrono::duration<double, std::milli>(task.ready_ms));
      }
      obs::ScopedSpan task_span(
          tracer, "task", "exec",
          request_id != 0
              ? std::vector<std::pair<std::string, double>>{
                    {"task", static_cast<double>(i)},
                    {"ready_ms", task.ready_ms},
                    {"request", static_cast<double>(request_id)}}
              : std::vector<std::pair<std::string, double>>{
                    {"task", static_cast<double>(i)},
                    {"ready_ms", task.ready_ms}});
      TaskResult r;
      r.ready_ms = task.ready_ms;
      bool started = false;
      // The GIL is acquired lazily: blocking segments run without it
      // (CPython's I/O wrappers drop the lock before waiting), matching
      // Algorithm 1's contract that blocks overlap freely.
      bool holding = false;
      for (const Segment& seg : task.behavior.segments()) {
        if (!started) {
          r.start_ms = now_ms(origin);
          started = true;
        }
        if (seg.kind == Segment::Kind::kCpu) {
          if (gil && !holding) {
            // The wait for the GIL is dead time Fig. 5 renders as gaps
            // between a thread's CPU spans; make it a span of its own.
            obs::ScopedSpan wait_span(tracer, "gil.wait", "gil");
            gil->acquire();
            holding = true;
          }
          const TimeMs begin = now_ms(origin);
          {
            obs::ScopedSpan cpu_span(tracer, "cpu", "exec",
                                     {{"ms", seg.duration}});
            if (gil) {
              spin_with_gil(seg.duration, *gil);
            } else {
              spin_for_ms(seg.duration);
            }
          }
          r.cpu_ms += seg.duration;
          r.spans.push_back(
              {TimelineSpan::Kind::kCpu, begin, now_ms(origin)});
        } else {
          if (gil && holding) {
            gil->release();
            holding = false;
            if (tracing) tracer.instant("gil.release", "gil");
          }
          const TimeMs begin = now_ms(origin);
          {
            obs::ScopedSpan block_span(tracer, "block", "exec",
                                       {{"ms", seg.duration}});
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(seg.duration));
          }
          r.spans.push_back(
              {TimelineSpan::Kind::kBlock, begin, now_ms(origin)});
        }
      }
      if (gil && holding) {
        gil->release();
        if (tracing) tracer.instant("gil.release", "gil");
      }
      r.finish_ms = now_ms(origin);
      if (!started) r.start_ms = r.finish_ms;
      std::lock_guard<std::mutex> lock(result_mu);
      result.tasks[i] = std::move(r);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const TaskResult& r : result.tasks) {
    result.makespan = std::max(result.makespan, r.finish_ms);
  }
  if (recorder.enabled()) {
    recorder.record(obs::RecKind::kExecEnd, request_id, 0,
                    recorder.now_ms(), result.makespan);
  }
  return result;
}

}  // namespace

InterleaveResult execute_threads_gil(const std::vector<ThreadTask>& tasks,
                                     TimeMs switch_interval_ms,
                                     std::uint64_t request_id) {
  EmulatedGil gil(switch_interval_ms);
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) gil.enable_tracing(&tracer, "interpreter");
  return execute(tasks, &gil, request_id);
}

InterleaveResult execute_threads_parallel(
    const std::vector<ThreadTask>& tasks, std::uint64_t request_id) {
  return execute(tasks, nullptr, request_id);
}

}  // namespace chiron

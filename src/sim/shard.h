// Building blocks for conservative parallel discrete-event simulation
// (PDES) over sharded event queues: a reusable epoch barrier that drives
// persistent workers through time windows.
//
// The model: each shard owns its events and advances them inside a time
// window [B, B') chosen so no cross-shard interaction generated inside
// the window can take effect before B' (the lookahead bound — e.g. the
// retry backoff floor in the cluster engine). Workers park on the
// barrier between windows; the single coordinator thread then owns ALL
// state — it drains each shard's outbox (a plain vector the owning
// worker appended to during the window), routes transfers, processes
// globally-ordered events (node crashes), and publishes the next
// window. Every handoff happens under the barrier mutex, so the engine
// is data-race free by construction (mutex happens-before), and the
// per-window signalling allocates nothing.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace chiron {
namespace sim {

/// Epoch barrier for the window workers of one run. Each worker starts
/// once per run and loops: wait for the next epoch, run their
/// shards up to the published window end, report done. The coordinator
/// publishes a window with open() and blocks in wait_done(); close()
/// releases every worker permanently. All signalling is a mutex +
/// condvars — zero allocations per window, and the mutex gives the
/// coordinator-to-worker (and back) happens-before edges that make the
/// shared shard state safely visible without atomics on the hot state.
class WindowBarrier {
 public:
  explicit WindowBarrier(std::size_t workers) : workers_(workers) {}

  /// Coordinator: publish the next window (workers read the bound via
  /// window_end()) and wake every worker.
  void open(double window_end) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      window_end_ = window_end;
      remaining_ = workers_;
      ++epoch_;
    }
    cv_work_.notify_all();
  }

  /// Coordinator: block until every worker finished the current window.
  void wait_done() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
  }

  /// Coordinator: release all workers; they return from their loops.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_work_.notify_all();
  }

  /// Worker: wait for an epoch newer than `last_seen`. Returns false
  /// when the barrier is closed (worker should exit), true with
  /// `*last_seen` advanced and `*window_end` filled otherwise.
  bool wait_open(std::uint64_t* last_seen, double* window_end) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_work_.wait(lock, [&] { return closed_ || epoch_ > *last_seen; });
    if (closed_) return false;
    *last_seen = epoch_;
    *window_end = window_end_;
    return true;
  }

  /// Worker: report the current window finished.
  void report_done() {
    bool last = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      last = (--remaining_ == 0);
    }
    if (last) cv_done_.notify_all();
  }

 private:
  const std::size_t workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;
  std::size_t remaining_ = 0;
  double window_end_ = 0.0;
  bool closed_ = false;
};

}  // namespace sim
}  // namespace chiron

// Fixed-size thread pool for deterministic fan-out of independent work.
//
// The deploy path (PGP) evaluates speculative outer-loop process counts as
// independent, CPU-bound tasks whose results must be combined in a fixed
// order so the chosen plan is bit-identical to the sequential search. The
// pool therefore exposes no work stealing and no completion-order
// callbacks: callers submit tasks, receive futures, and always consume
// results in submission (index) order.
//
// Nesting rule: pool tasks must never block on other tasks of the same
// pool (classic thread-pool deadlock). `map()` enforces this structurally:
// when invoked from inside a worker thread it degrades to an inline
// sequential loop, so parallel code can be composed freely — the outermost
// parallel level fans out, inner levels run inline on the worker.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace chiron {

/// Fixed-worker task pool with future-based results.
class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1). Workers idle on a condition
  /// variable between tasks, so a pool owned by a long-lived object costs
  /// nothing while no work is queued.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return threads_.size(); }

  /// True when called from one of *any* ThreadPool's worker threads; used
  /// to run nested parallel sections inline instead of deadlocking.
  static bool on_worker_thread();

  /// Schedules `fn` and returns a future for its result. Exceptions
  /// propagate through the future.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs `fn(0..count-1)` and returns the results in index order —
  /// deterministic regardless of worker count or scheduling. Runs inline
  /// (plain sequential loop) when `pool` is null, has a single worker, or
  /// the caller is itself a pool worker (see the nesting rule above).
  template <typename Fn>
  static auto map(ThreadPool* pool, std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
    using R = std::invoke_result_t<Fn, std::size_t>;
    std::vector<R> results;
    results.reserve(count);
    if (pool == nullptr || pool->size() <= 1 || on_worker_thread() ||
        count <= 1) {
      for (std::size_t i = 0; i < count; ++i) results.push_back(fn(i));
      return results;
    }
    std::vector<std::future<R>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      futures.push_back(pool->submit([&fn, i] { return fn(i); }));
    }
    for (auto& f : futures) results.push_back(f.get());
    return results;
  }

  /// Resolves a worker-count knob: 0 means "auto" (hardware concurrency),
  /// anything else is taken literally; always at least 1.
  static std::size_t resolve_workers(std::size_t requested);

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace chiron

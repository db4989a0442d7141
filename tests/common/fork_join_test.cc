#include "common/fork_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

namespace chiron {
namespace {

TEST(ForkJoinTest, ResolveWorkersSemantics) {
  EXPECT_GE(resolve_workers(0), 1u);  // auto, at least 1
  EXPECT_EQ(resolve_workers(1), 1u);
  EXPECT_EQ(resolve_workers(5), 5u);
}

TEST(ForkJoinTest, PreservesIndexOrder) {
  const auto out = fork_join(4, 100, [](std::size_t i) {
    if (i % 7 == 0) {  // jitter completion order
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return i * i;
  });
  ASSERT_EQ(out.size(), 100u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

void expect_runs_inline(std::size_t threads) {
  const std::thread::id caller = std::this_thread::get_id();
  const auto out = fork_join(threads, 5, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    return i + 1;
  });
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[4], 5u);
}

TEST(ForkJoinTest, ZeroThreadsRunsInlineOnTheCaller) { expect_runs_inline(0); }

TEST(ForkJoinTest, OneThreadRunsInlineOnTheCaller) { expect_runs_inline(1); }

TEST(ForkJoinTest, UsesMultipleThreadsAndTheCallerRunsIndexZero) {
  std::mutex mu;
  std::set<std::thread::id> ids;
  std::thread::id first;
  std::atomic<int> in_flight{0};
  std::atomic<int> peak{0};
  fork_join_each(4, 16, [&](std::size_t i) {
    const int now = ++in_flight;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
      if (i == 0) first = std::this_thread::get_id();
    }
    --in_flight;
  });
  EXPECT_GT(ids.size(), 1u);
  EXPECT_LE(ids.size(), 4u);
  EXPECT_GT(peak.load(), 1);
  EXPECT_EQ(first, std::this_thread::get_id());
}

TEST(ForkJoinTest, ManySmallTasksDrainCleanly) {
  std::atomic<int> sum{0};
  fork_join_each(3, 500,
                 [&sum](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 500 * 499 / 2);
}

TEST(ForkJoinTest, NoTaskOutlivesAFailedForkJoin) {
  // Task 0 throws at once while the others are still sleeping. The throw
  // must not reach the caller before every other task has finished with
  // the caller-owned counter, or they would write into an unwound frame.
  constexpr std::size_t kCount = 4;
  int finished = 0;
  std::mutex mu;
  EXPECT_THROW(fork_join(kCount, kCount,
                         [&](std::size_t i) {
                           if (i == 0) throw std::runtime_error("task 0");
                           std::this_thread::sleep_for(
                               std::chrono::milliseconds(20));
                           std::lock_guard<std::mutex> lock(mu);
                           return ++finished;
                         }),
               std::runtime_error);
  EXPECT_EQ(finished, static_cast<int>(kCount - 1));
}

TEST(ForkJoinTest, RethrowsTheLowestIndexException) {
  for (const std::size_t threads : {1u, 4u}) {
    try {
      fork_join(threads, 8, [](std::size_t i) -> int {
        if (i == 3 || i == 6) throw std::out_of_range(std::to_string(i));
        return 0;
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(), "3");
    }
  }
}

}  // namespace
}  // namespace chiron

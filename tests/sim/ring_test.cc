#include "sim/ring.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

#include "common/rng.h"
#include "support/resident.h"

namespace chiron {
namespace {

// The shape of the cluster engine's timeout-ring entry.
struct Entry {
  double at;
  std::uint64_t seq;
  std::uint32_t id;
};
static_assert(sizeof(Entry) == 24);

void expect_same(const Ring<std::uint32_t>& ring,
                 const std::deque<std::uint32_t>& model) {
  ASSERT_EQ(ring.size(), model.size());
  ASSERT_EQ(ring.empty(), model.empty());
  if (!model.empty()) {
    EXPECT_EQ(ring.front(), model.front());
  }
}

TEST(RingTest, FifoAndLifoAcrossWrapAndGrowth) {
  Ring<std::uint32_t> ring;
  std::deque<std::uint32_t> model;
  ring.reserve(7);  // capacity 8
  std::uint32_t next = 0;
  auto push = [&] {
    ring.push_back(next);
    model.push_back(next);
    ++next;
  };

  // Advance the head so the live range wraps the end of the storage.
  for (int i = 0; i < 6; ++i) push();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ring.pop_front(), model.front());
    model.pop_front();
  }
  for (int i = 0; i < 7; ++i) push();  // fills all 8 slots, wrapped
  expect_same(ring, model);

  // Push past the reservation while wrapped: growth keeps FIFO order.
  for (int i = 0; i < 20; ++i) push();
  expect_same(ring, model);
  EXPECT_EQ(ring.pop_back(), model.back());
  model.pop_back();
  expect_same(ring, model);

  // A seeded mix of all three operations, growing through several
  // doublings and draining to empty more than once.
  Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const double u = rng.uniform();
    if (model.empty() || u < 0.45) {
      push();
    } else if (u < 0.75) {
      ASSERT_EQ(ring.pop_front(), model.front());
      model.pop_front();
    } else {
      ASSERT_EQ(ring.pop_back(), model.back());
      model.pop_back();
    }
    expect_same(ring, model);
  }
  while (!model.empty()) {
    ASSERT_EQ(ring.pop_front(), model.front());
    model.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingTest, ReserveLeavesUntouchedPagesNonResident) {
  const long before = testsupport::resident_bytes();
  ASSERT_GE(before, 0) << "/proc/self/statm is not readable";
  Ring<Entry> ring;
  // 1 << 22 slots of 24 B = 96 MB: above glibc's mmap-threshold ceiling,
  // so the block is a fresh mapping whose pages start non-resident.
  ring.reserve((std::size_t{1} << 22) - 1);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    ring.push_back(Entry{static_cast<double>(i), i, i});
  }
  const long grown = testsupport::resident_bytes() - before;
  EXPECT_LT(grown, 8L << 20) << "reserve touched " << (grown >> 20) << " MB";
  EXPECT_EQ(ring.size(), 1000u);
  EXPECT_EQ(ring.front().id, 0u);
  EXPECT_EQ(ring.pop_back().id, 999u);
}

}  // namespace
}  // namespace chiron

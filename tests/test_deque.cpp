// Tests for the Chase-Lev work-stealing deque: sequential semantics,
// growth, and owner-vs-thief stress with full element accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "runtime/deque.hpp"

namespace dws::rt {
namespace {

TEST(ChaseLevDeque, StartsEmpty) {
  ChaseLevDeque<int*> d;
  EXPECT_TRUE(d.empty_approx());
  EXPECT_EQ(d.size_approx(), 0u);
  EXPECT_FALSE(d.pop().has_value());
  EXPECT_FALSE(d.steal().has_value());
}

TEST(ChaseLevDeque, PopIsLifo) {
  ChaseLevDeque<std::intptr_t> d;
  for (std::intptr_t i = 1; i <= 5; ++i) d.push(i);
  for (std::intptr_t i = 5; i >= 1; --i) {
    auto v = d.pop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(d.pop().has_value());
}

TEST(ChaseLevDeque, StealIsFifo) {
  ChaseLevDeque<std::intptr_t> d;
  for (std::intptr_t i = 1; i <= 5; ++i) d.push(i);
  for (std::intptr_t i = 1; i <= 5; ++i) {
    auto v = d.steal();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(d.steal().has_value());
}

TEST(ChaseLevDeque, MixedPopAndStealMeetInTheMiddle) {
  ChaseLevDeque<std::intptr_t> d;
  for (std::intptr_t i = 1; i <= 4; ++i) d.push(i);
  EXPECT_EQ(*d.steal(), 1);  // oldest
  EXPECT_EQ(*d.pop(), 4);    // newest
  EXPECT_EQ(*d.steal(), 2);
  EXPECT_EQ(*d.pop(), 3);
  EXPECT_FALSE(d.pop().has_value());
  EXPECT_FALSE(d.steal().has_value());
}

TEST(ChaseLevDeque, GrowsPastInitialCapacity) {
  ChaseLevDeque<std::intptr_t> d(4);
  const std::intptr_t n = 10000;
  for (std::intptr_t i = 0; i < n; ++i) d.push(i);
  EXPECT_EQ(d.size_approx(), static_cast<std::size_t>(n));
  EXPECT_GE(d.capacity(), static_cast<std::size_t>(n));
  for (std::intptr_t i = n - 1; i >= 0; --i) EXPECT_EQ(*d.pop(), i);
}

TEST(ChaseLevDeque, ReusableAfterDraining) {
  ChaseLevDeque<std::intptr_t> d(4);
  for (int round = 0; round < 100; ++round) {
    for (std::intptr_t i = 0; i < 7; ++i) d.push(i);
    for (std::intptr_t i = 0; i < 7; ++i) ASSERT_TRUE(d.pop().has_value());
    ASSERT_FALSE(d.pop().has_value());
  }
}

// Stress: one owner pushes/pops while several thieves steal. Every pushed
// element must be consumed exactly once (across pops and steals).
TEST(ChaseLevDeque, PushReportsTheEmptyToNonEmptyEdge) {
  ChaseLevDeque<int> dq(4);
  EXPECT_TRUE(dq.push(1));   // empty -> non-empty
  EXPECT_FALSE(dq.push(2));  // already non-empty
  EXPECT_EQ(dq.pop(), 2);
  EXPECT_FALSE(dq.push(3));  // 1 is still queued
  EXPECT_EQ(dq.pop(), 3);
  EXPECT_EQ(dq.pop(), 1);    // the last task: top moves
  EXPECT_TRUE(dq.push(4));   // emptied by the owner's own pop
  EXPECT_EQ(dq.steal(), 4);
  EXPECT_EQ(dq.pop(), std::nullopt);  // the owner sees the steal
  EXPECT_TRUE(dq.push(5));
  // Growth past the initial capacity keeps the edge exact.
  for (int i = 0; i < 16; ++i) EXPECT_FALSE(dq.push(i));
  while (dq.pop()) {
  }
  EXPECT_TRUE(dq.push(6));
}

TEST(ChaseLevDeque, MarkIsTopAndBottom) {
  ChaseLevDeque<int> dq(4);
  EXPECT_FALSE(dq.mark().nonempty());
  dq.push(1);
  dq.push(2);
  const DequeMark m = dq.mark();
  EXPECT_EQ(m.bottom - m.top, 2);
  EXPECT_EQ(dq.pop(), 2);  // a pop above the oldest task leaves top alone
  EXPECT_EQ(dq.mark().top, m.top);
  EXPECT_EQ(dq.steal(), 1);  // a steal moves it
  EXPECT_EQ(dq.mark().top, m.top + 1);
  EXPECT_FALSE(dq.mark().nonempty());
}

TEST(ChaseLevDequeStress, NoLossNoDuplication) {
  constexpr std::intptr_t kItems = 200000;
  constexpr int kThieves = 3;
  ChaseLevDeque<std::intptr_t> d(8);

  std::atomic<bool> owner_done{false};
  std::atomic<std::int64_t> sum_consumed{0};
  std::atomic<std::int64_t> count_consumed{0};

  std::vector<std::thread> thieves;
  thieves.reserve(kThieves);
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      std::int64_t local_sum = 0, local_count = 0;
      while (!owner_done.load(std::memory_order_acquire) ||
             !d.empty_approx()) {
        if (auto v = d.steal()) {
          local_sum += *v;
          ++local_count;
        }
      }
      sum_consumed.fetch_add(local_sum);
      count_consumed.fetch_add(local_count);
    });
  }

  // Owner: push in bursts, pop some back.
  std::int64_t own_sum = 0, own_count = 0;
  for (std::intptr_t i = 1; i <= kItems; ++i) {
    d.push(i);
    if (i % 3 == 0) {
      if (auto v = d.pop()) {
        own_sum += *v;
        ++own_count;
      }
    }
  }
  // Drain the remainder as the owner.
  while (auto v = d.pop()) {
    own_sum += *v;
    ++own_count;
  }
  owner_done.store(true, std::memory_order_release);
  for (auto& th : thieves) th.join();
  // Thieves may have raced the final owner drain; collect stragglers.
  while (auto v = d.steal()) {
    own_sum += *v;
    ++own_count;
  }

  const std::int64_t expected_sum =
      static_cast<std::int64_t>(kItems) * (kItems + 1) / 2;
  EXPECT_EQ(count_consumed.load() + own_count, kItems);
  EXPECT_EQ(sum_consumed.load() + own_sum, expected_sum);
}

// Stress growth under concurrent stealing: the owner pushes enough to
// force several buffer growths while thieves are active.
TEST(ChaseLevDequeStress, GrowthUnderConcurrentSteals) {
  ChaseLevDeque<std::intptr_t> d(2);
  constexpr std::intptr_t kItems = 100000;
  std::atomic<std::int64_t> stolen_count{0};
  std::atomic<bool> done{false};

  std::thread thief([&] {
    std::int64_t local = 0;
    while (!done.load(std::memory_order_acquire) || !d.empty_approx()) {
      if (d.steal()) ++local;
    }
    stolen_count.fetch_add(local);
  });

  std::int64_t popped = 0;
  for (std::intptr_t i = 0; i < kItems; ++i) d.push(i);
  while (d.pop()) ++popped;
  done.store(true, std::memory_order_release);
  thief.join();
  while (d.steal()) ++popped;

  EXPECT_EQ(stolen_count.load() + popped, kItems);
}

// Retired grow buffers are freed only by the destructor, so the bound
// that matters is memory: each retired buffer is half the next, so their
// total stays below the live capacity (retired + live < 2x the
// high-water mark), however many grows a long-lived deque goes through.
TEST(ChaseLevDeque, RetiredBuffersStayBelowLiveCapacity) {
  ChaseLevDeque<std::intptr_t> d(2);
  for (std::intptr_t i = 0; i < 5000; ++i) d.push(i);  // many grows
  EXPECT_GE(d.retired_count(), 1u);
  EXPECT_LT(d.retired_capacity_total(), d.capacity());
  for (std::intptr_t i = 4999; i >= 0; --i) EXPECT_EQ(*d.pop(), i);
}

// Exactly-once when two thieves fight over a single element repeatedly.
TEST(ChaseLevDequeStress, SingleElementContention) {
  ChaseLevDeque<std::intptr_t> d;
  constexpr int kRounds = 50000;
  std::atomic<int> consumed{0};
  std::atomic<int> round_flag{0};
  std::atomic<bool> stop{false};

  auto thief_fn = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (d.steal()) consumed.fetch_add(1);
    }
  };
  std::thread t1(thief_fn), t2(thief_fn);

  for (int r = 0; r < kRounds; ++r) {
    d.push(r);
    // Sometimes the owner fights for it too.
    if (r % 2 == 0) {
      if (d.pop()) consumed.fetch_add(1);
    }
    (void)round_flag;
  }
  // Wait for thieves to drain the rest.
  while (!d.empty_approx()) std::this_thread::yield();
  stop.store(true, std::memory_order_release);
  t1.join();
  t2.join();
  while (d.steal()) consumed.fetch_add(1);

  EXPECT_EQ(consumed.load(), kRounds);
}

}  // namespace
}  // namespace dws::rt

// Tests for the higher-level parallel algorithms: parallel_sort and
// parallel_inclusive_scan, across modes, types, comparators, and edge
// cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "runtime/api.hpp"
#include "util/rng.hpp"

namespace dws::rt {
namespace {

Config cfg(SchedMode mode = SchedMode::kDws, unsigned cores = 4) {
  Config c;
  c.mode = mode;
  c.num_cores = cores;
  c.pin_threads = false;
  c.coordinator_period_ms = 2.0;
  return c;
}

std::vector<std::int64_t> random_ints(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::int64_t> v(n);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next()) % 100000;
  return v;
}

class SortModes : public ::testing::TestWithParam<SchedMode> {};

TEST_P(SortModes, SortsRandomInput) {
  Scheduler sched(cfg(GetParam()));
  auto v = random_ints(50000, 1);
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_sort(sched, v.begin(), v.end());
  EXPECT_EQ(v, expected);
}

INSTANTIATE_TEST_SUITE_P(Modes, SortModes,
                         ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(ParallelSort, EdgeCases) {
  Scheduler sched(cfg());
  std::vector<std::int64_t> empty;
  parallel_sort(sched, empty.begin(), empty.end());
  EXPECT_TRUE(empty.empty());

  std::vector<std::int64_t> one{7};
  parallel_sort(sched, one.begin(), one.end());
  EXPECT_EQ(one[0], 7);

  std::vector<std::int64_t> sorted(1000);
  std::iota(sorted.begin(), sorted.end(), 0);
  auto expected = sorted;
  parallel_sort(sched, sorted.begin(), sorted.end(), std::less<>{}, 16);
  EXPECT_EQ(sorted, expected);

  std::vector<std::int64_t> reversed(1000);
  std::iota(reversed.rbegin(), reversed.rend(), 0);
  parallel_sort(sched, reversed.begin(), reversed.end(), std::less<>{}, 16);
  EXPECT_EQ(reversed, expected);
}

TEST(ParallelSort, CustomComparator) {
  Scheduler sched(cfg());
  auto v = random_ints(10000, 3);
  auto expected = v;
  std::sort(expected.begin(), expected.end(), std::greater<>{});
  parallel_sort(sched, v.begin(), v.end(), std::greater<>{}, 256);
  EXPECT_EQ(v, expected);
}

TEST(ParallelSort, DuplicateHeavyInput) {
  Scheduler sched(cfg());
  util::Xoshiro256 rng(9);
  std::vector<std::int64_t> v(20000);
  for (auto& x : v) x = static_cast<std::int64_t>(rng.next_below(7));
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_sort(sched, v.begin(), v.end(), std::less<>{}, 128);
  EXPECT_EQ(v, expected);
}

TEST(ParallelSort, Strings) {
  Scheduler sched(cfg());
  util::Xoshiro256 rng(11);
  std::vector<std::string> v(5000);
  for (auto& s : v) {
    s = std::to_string(rng.next_below(100000));
  }
  auto expected = v;
  std::sort(expected.begin(), expected.end());
  parallel_sort(sched, v.begin(), v.end(), std::less<>{}, 64);
  EXPECT_EQ(v, expected);
}

TEST(ParallelMerge, MergesDisjointAndInterleaved) {
  Scheduler sched(cfg());
  // Interleaved inputs.
  std::vector<std::int64_t> a, b;
  for (std::int64_t i = 0; i < 5000; ++i) (i % 2 ? a : b).push_back(i);
  std::vector<std::int64_t> out(a.size() + b.size());
  sched.run([&] {
    detail::parallel_merge(sched, a.begin(), a.end(), b.begin(), b.end(),
                           out.begin(), std::less<>{}, 64);
  });
  for (std::int64_t i = 0; i < static_cast<std::int64_t>(out.size()); ++i) {
    ASSERT_EQ(out[static_cast<std::size_t>(i)], i);
  }
  // Disjoint inputs (everything in a < everything in b).
  std::vector<std::int64_t> lo(3000), hi(2000);
  std::iota(lo.begin(), lo.end(), 0);
  std::iota(hi.begin(), hi.end(), 3000);
  std::vector<std::int64_t> out2(5000);
  sched.run([&] {
    detail::parallel_merge(sched, lo.begin(), lo.end(), hi.begin(), hi.end(),
                           out2.begin(), std::less<>{}, 64);
  });
  EXPECT_TRUE(std::is_sorted(out2.begin(), out2.end()));
  EXPECT_EQ(out2.front(), 0);
  EXPECT_EQ(out2.back(), 4999);
}

TEST(ParallelMerge, UnevenLengthsAndEmptySides) {
  Scheduler sched(cfg());
  std::vector<std::int64_t> a = {5};
  auto b = random_ints(4000, 21);
  std::sort(b.begin(), b.end());
  std::vector<std::int64_t> expected(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
  std::vector<std::int64_t> out(expected.size());
  sched.run([&] {
    detail::parallel_merge(sched, a.begin(), a.end(), b.begin(), b.end(),
                           out.begin(), std::less<>{}, 32);
  });
  EXPECT_EQ(out, expected);

  std::vector<std::int64_t> empty;
  std::vector<std::int64_t> out3(b.size());
  sched.run([&] {
    detail::parallel_merge(sched, empty.begin(), empty.end(), b.begin(),
                           b.end(), out3.begin(), std::less<>{}, 32);
  });
  EXPECT_EQ(out3, b);
}

TEST(ParallelScan, MatchesSerialPrefixSum) {
  Scheduler sched(cfg());
  auto v = random_ints(100000, 5);
  auto expected = v;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  parallel_inclusive_scan(sched, v.data(),
                          static_cast<std::int64_t>(v.size()));
  EXPECT_EQ(v, expected);
}

TEST(ParallelScan, SmallBlockSizeStillCorrect) {
  Scheduler sched(cfg());
  auto v = random_ints(1000, 6);
  auto expected = v;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  parallel_inclusive_scan(sched, v.data(),
                          static_cast<std::int64_t>(v.size()), std::plus<>{},
                          /*block=*/7);
  EXPECT_EQ(v, expected);
}

TEST(ParallelScan, EdgeCases) {
  Scheduler sched(cfg());
  std::vector<std::int64_t> empty;
  parallel_inclusive_scan(sched, empty.data(), 0);  // must not crash
  std::vector<std::int64_t> one{5};
  parallel_inclusive_scan(sched, one.data(), 1);
  EXPECT_EQ(one[0], 5);
  // Single block (n < block).
  std::vector<std::int64_t> small{1, 2, 3, 4};
  parallel_inclusive_scan(sched, small.data(), 4);
  EXPECT_EQ(small, (std::vector<std::int64_t>{1, 3, 6, 10}));
}

TEST(ParallelScan, CustomAssociativeOp) {
  // max-scan: running maximum.
  Scheduler sched(cfg());
  auto v = random_ints(50000, 7);
  auto expected = v;
  for (std::size_t i = 1; i < expected.size(); ++i) {
    expected[i] = std::max(expected[i - 1], expected[i]);
  }
  parallel_inclusive_scan(
      sched, v.data(), static_cast<std::int64_t>(v.size()),
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); },
      /*block=*/512);
  EXPECT_EQ(v, expected);
}

TEST(ParallelScan, DoubleSummationTolerance) {
  // The blocked scan computes carry + (within-block prefix) — a different
  // association than the serial left fold, so doubles can differ by
  // rounding; values stay within tight tolerance.
  Scheduler sched(cfg());
  util::Xoshiro256 rng(13);
  std::vector<double> v(10000);
  for (auto& x : v) x = rng.next_double(-1.0, 1.0);
  auto expected = v;
  std::partial_sum(expected.begin(), expected.end(), expected.begin());
  parallel_inclusive_scan(sched, v.data(),
                          static_cast<std::int64_t>(v.size()), std::plus<>{},
                          /*block=*/1024);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i], expected[i], 1e-9) << "index " << i;
  }
}

}  // namespace
}  // namespace dws::rt

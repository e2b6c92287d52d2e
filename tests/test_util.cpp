// Unit tests for src/util: RNG determinism and distribution sanity,
// statistics accumulators, CLI parsing.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <set>
#include <stdexcept>
#include <string>

#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace dws::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256, IsDeterministicAcrossInstances) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, NextBelowStaysInRange) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 16ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Xoshiro256, NextBelowZeroAndOneAreZero) {
  Xoshiro256 rng(5);
  EXPECT_EQ(rng.next_below(0), 0u);
  EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(16));
  EXPECT_EQ(seen.size(), 16u);  // all 16 victims reachable
}

TEST(Xoshiro256, NextBelowIsRoughlyUniform) {
  Xoshiro256 rng(31337);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::array<int, kBuckets> counts{};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  const double expected = static_cast<double>(kDraws) / kBuckets;
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.1);
  }
}

TEST(Xoshiro256, NextDoubleIsInUnitInterval) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Xoshiro256, NextDoubleRangeRespectsBounds) {
  Xoshiro256 rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double(2.5, 7.5);
    EXPECT_GE(x, 2.5);
    EXPECT_LT(x, 7.5);
  }
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, ResetClears) {
  RunningStats s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Samples, PercentilesInterpolate) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(1.0), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(0.95), 95.05, 1e-9);
}

TEST(Samples, EmptyPercentileIsZero) {
  Samples s;
  EXPECT_DOUBLE_EQ(s.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Samples, MeanStddev) {
  Samples s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Geomean, KnownValues) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({4.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, NonPositiveSamplesAreExcludedNotPoisonous) {
  // The geometric mean is defined over positive reals. A zero sample
  // (a zero-time bench rep) used to drive log() to -inf and turn the
  // whole cross-mix figure into NaN/0; the policy is now to exclude
  // non-positive samples from the mean.
  EXPECT_NEAR(geomean({2.0, 0.0, 8.0}), 4.0, 1e-12);    // mean of {2, 8}
  EXPECT_NEAR(geomean({-1.0, 4.0}), 4.0, 1e-12);        // mean of {4}
  EXPECT_NEAR(geomean({0.0, -3.0, 9.0}), 9.0, 1e-12);   // mean of {9}
  EXPECT_FALSE(std::isnan(geomean({0.0, 2.0})));
  EXPECT_TRUE(std::isfinite(geomean({0.0, 2.0})));
}

TEST(Geomean, AllNonPositiveIsZero) {
  // With nothing left after exclusion there is no mean to report; 0
  // matches the empty-input convention (and is itself outside the
  // geomean's range, so it cannot be mistaken for a real figure).
  EXPECT_DOUBLE_EQ(geomean({0.0}), 0.0);
  EXPECT_DOUBLE_EQ(geomean({0.0, -2.0, 0.0}), 0.0);
}

TEST(Samples, PercentilesOverloadMatchesRepeatedCalls) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(101 - i);  // unsorted input
  const std::vector<double> qs{0.0, 0.5, 0.9, 0.95, 0.99, 1.0};
  const std::vector<double> got = s.percentiles(qs);
  ASSERT_EQ(got.size(), qs.size());
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], s.percentile(qs[i])) << "q=" << qs[i];
  }
}

TEST(Samples, PercentilesOverloadOnEmptyInput) {
  Samples s;
  const std::vector<double> got = s.percentiles({0.5, 0.99});
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 0.0);
  EXPECT_DOUBLE_EQ(got[1], 0.0);
}

TEST(CliArgs, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--cores=16", "--mode=DWS"};
  CliArgs args(3, argv, {"cores", "mode"});
  EXPECT_EQ(args.get_int("cores", 0), 16);
  EXPECT_EQ(args.get_str("mode"), "DWS");
}

TEST(CliArgs, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--cores", "8"};
  CliArgs args(3, argv, {"cores"});
  EXPECT_EQ(args.get_int("cores", 0), 8);
}

TEST(CliArgs, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  CliArgs args(2, argv, {"verbose", "quiet"});
  EXPECT_TRUE(args.get_bool("verbose", false));
  EXPECT_FALSE(args.get_bool("quiet", false));
}

TEST(CliArgs, MissingKeyReturnsDefault) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv, {"n", "x", "s"});
  EXPECT_EQ(args.get_int("n", 42), 42);
  EXPECT_DOUBLE_EQ(args.get_double("x", 1.5), 1.5);
  EXPECT_EQ(args.get_str("s", "d"), "d");
}

TEST(CliArgs, MalformedIntThrows) {
  const char* argv[] = {"prog", "--n=12x"};
  CliArgs args(2, argv, {"n"});
  EXPECT_THROW((void)args.get_int("n", 0), std::invalid_argument);
}

TEST(CliArgs, MalformedBoolThrows) {
  const char* argv[] = {"prog", "--b=maybe"};
  CliArgs args(2, argv, {"b"});
  EXPECT_THROW((void)args.get_bool("b", false), std::invalid_argument);
}

TEST(CliArgs, IntListParses) {
  const char* argv[] = {"prog", "--tsleep=1,2,4,8"};
  CliArgs args(2, argv, {"tsleep"});
  const auto v = args.get_int_list("tsleep", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[0], 1);
  EXPECT_EQ(v[3], 8);
}

TEST(CliArgs, PositionalPreserved) {
  const char* argv[] = {"prog", "alpha", "--k=1", "beta"};
  CliArgs args(4, argv, {"k"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "alpha");
  EXPECT_EQ(args.positional()[1], "beta");
}

TEST(CliArgs, UnknownFlagThrowsWithItsName) {
  for (const char* flag : {"--reps", "--reps=3", "--scael=2"}) {
    const char* argv[] = {"prog", "--scale=1", flag};
    try {
      CliArgs args(3, argv, {"scale"});
      ADD_FAILURE() << flag << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string name(flag, std::strcspn(flag, "="));
      EXPECT_NE(std::string(e.what()).find("unknown flag " + name),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(CliArgs, ReadingAnUndeclaredFlagIsAProgrammingError) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv, {"scale"});
  EXPECT_THROW((void)args.get_int("runs", 3), std::logic_error);
  EXPECT_THROW((void)args.has("runs"), std::logic_error);
}

TEST(Stopwatch, MeasuresMonotonicTime) {
  Stopwatch sw;
  const auto a = sw.elapsed_ns();
  const auto b = sw.elapsed_ns();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0);
}

}  // namespace
}  // namespace dws::util

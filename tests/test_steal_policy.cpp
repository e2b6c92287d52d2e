// Unit + property tests for the Algorithm-1 steal policy state machine.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/steal_policy.hpp"

namespace dws {
namespace {

TEST(StealPolicy, ClassicNeverYieldsOrSleeps) {
  StealPolicy p(SchedMode::kClassic, 4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(p.on_steal_failed(), StealOutcome::kRetry);
  }
}

TEST(StealPolicy, FailureCountSaturatesInsteadOfOverflowing) {
  // kClassic never sleeps, so nothing ever reset failed_steals_ and a
  // starved worker incremented it forever — signed overflow (UB) after
  // ~2^31 failed steals. The counter now saturates well below that and
  // the policy's behavior is unchanged at the rail.
  StealPolicy p(SchedMode::kClassic, 4);
  for (int i = 0; i < StealPolicy::kFailedStealsSaturation + 10; ++i) {
    ASSERT_EQ(p.on_steal_failed(), StealOutcome::kRetry);
  }
  EXPECT_EQ(p.failed_steals(), StealPolicy::kFailedStealsSaturation);
  // Saturated is not stuck: a successful steal still resets the counter.
  p.on_task_acquired();
  EXPECT_EQ(p.failed_steals(), 0);
}

TEST(StealPolicy, SaturatedCounterStillTriggersSleep) {
  // A T_SLEEP at (or clamped to) the saturation rail must still fire:
  // the threshold comparison is >=, so pinning the counter at the rail
  // keeps the sleep decision reachable rather than unreachable-by-one.
  StealPolicy p(SchedMode::kDws, StealPolicy::kFailedStealsSaturation);
  for (int i = 0; i < StealPolicy::kFailedStealsSaturation - 1; ++i) {
    ASSERT_EQ(p.on_steal_failed(), StealOutcome::kYield);
  }
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kSleep);
}

TEST(StealPolicy, OversizedTSleepIsClampedToTheSaturationRail) {
  // A T_SLEEP beyond the saturation point could never be reached by a
  // counter that stops counting there; the constructor clamps it so
  // "sleep eventually" stays true for any configuration.
  for (int over : {1, 5, 1000, StealPolicy::kFailedStealsSaturation}) {
    const StealPolicy p(SchedMode::kDws,
                        StealPolicy::kFailedStealsSaturation + over);
    EXPECT_EQ(p.t_sleep(), StealPolicy::kFailedStealsSaturation) << over;
  }
  EXPECT_EQ(StealPolicy(SchedMode::kDws, 7).t_sleep(), 7);
}

TEST(StealPolicy, AbpAlwaysYields) {
  StealPolicy p(SchedMode::kAbp, 4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(p.on_steal_failed(), StealOutcome::kYield);
  }
}

TEST(StealPolicy, EpAlwaysYields) {
  StealPolicy p(SchedMode::kEp, 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(p.on_steal_failed(), StealOutcome::kYield);
  }
}

TEST(StealPolicy, DwsSleepsOnExactlyTheTSleepthFailure) {
  // Algorithm 1 line 14: sleep once T_SLEEP consecutive steals have
  // failed — the T_SLEEP-th failure triggers sleep. (Regression test for
  // the historical `>` off-by-one that slept on the (T_SLEEP+1)-th.)
  constexpr int kTSleep = 16;
  StealPolicy p(SchedMode::kDws, kTSleep);
  for (int i = 0; i < kTSleep - 1; ++i) {
    EXPECT_EQ(p.on_steal_failed(), StealOutcome::kYield) << "failure " << i;
  }
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kSleep);
}

TEST(StealPolicy, TaskAcquisitionResetsTheCounter) {
  constexpr int kTSleep = 4;
  StealPolicy p(SchedMode::kDws, kTSleep);
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < kTSleep - 1; ++i) {
      EXPECT_EQ(p.on_steal_failed(), StealOutcome::kYield);
    }
    p.on_task_acquired();  // success resets; never reaches sleep
    EXPECT_EQ(p.failed_steals(), 0);
  }
}

TEST(StealPolicy, SleepResetsTheCounter) {
  StealPolicy p(SchedMode::kDwsNc, 3);
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kYield);
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kYield);
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kSleep);
  p.on_sleep();
  // A woken worker gets a fresh budget.
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kYield);
}

TEST(StealPolicy, TSleepZeroSleepsOnFirstFailure) {
  StealPolicy p(SchedMode::kDws, 0);
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kSleep);
}

TEST(StealPolicy, TSleepOneAlsoSleepsOnFirstFailure) {
  // T_SLEEP = 1 means "sleep after one failed steal": with the corrected
  // comparison the first failure already meets the threshold.
  StealPolicy p(SchedMode::kDws, 1);
  EXPECT_EQ(p.on_steal_failed(), StealOutcome::kSleep);
}

TEST(SchedModeNames, RoundTrip) {
  for (SchedMode m : kAllModes) {
    SchedMode parsed{};
    ASSERT_TRUE(parse_mode(to_string(m), parsed)) << to_string(m);
    EXPECT_EQ(parsed, m);
  }
  SchedMode out{};
  EXPECT_FALSE(parse_mode("bogus", out));
  EXPECT_FALSE(parse_mode("BWS", out));    // deleted mode
  EXPECT_FALSE(parse_mode("DWSNC", out));  // only "DWS-NC" parses
}

TEST(SchedModeTraits, SleepAndSpaceShareFlags) {
  EXPECT_FALSE(mode_sleeps(SchedMode::kClassic));
  EXPECT_FALSE(mode_sleeps(SchedMode::kAbp));
  EXPECT_FALSE(mode_sleeps(SchedMode::kEp));
  EXPECT_TRUE(mode_sleeps(SchedMode::kDws));
  EXPECT_TRUE(mode_sleeps(SchedMode::kDwsNc));

  EXPECT_FALSE(mode_space_shares(SchedMode::kClassic));
  EXPECT_FALSE(mode_space_shares(SchedMode::kAbp));
  EXPECT_TRUE(mode_space_shares(SchedMode::kEp));
  EXPECT_TRUE(mode_space_shares(SchedMode::kDws));
  EXPECT_FALSE(mode_space_shares(SchedMode::kDwsNc));
}

// Property sweep: for every T_SLEEP the policy yields exactly
// max(T_SLEEP - 1, 0) times before the T_SLEEP-th failure sleeps, for
// both sleeping modes (Algorithm 1: sleep *after* T_SLEEP failures).
class StealPolicySweep
    : public ::testing::TestWithParam<std::tuple<SchedMode, int>> {};

TEST_P(StealPolicySweep, SleepTriggersAtThresholdExactly) {
  const auto [mode, t_sleep] = GetParam();
  StealPolicy p(mode, t_sleep);
  int yields = 0;
  while (p.on_steal_failed() == StealOutcome::kYield) ++yields;
  EXPECT_EQ(yields, std::max(t_sleep - 1, 0));
  EXPECT_EQ(p.failed_steals(), std::max(t_sleep, 1));
}

INSTANTIATE_TEST_SUITE_P(
    AllThresholds, StealPolicySweep,
    ::testing::Combine(::testing::Values(SchedMode::kDws, SchedMode::kDwsNc),
                       ::testing::Values(0, 1, 2, 4, 8, 16, 32, 64, 128)));

}  // namespace
}  // namespace dws

// Unit + property tests for the Algorithm-1 steal policy state machine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "core/config.hpp"
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
  // counter that stops counting there; the constructor (and setter)
  // clamp it so "sleep eventually" stays true for any configuration.
  StealPolicy p(SchedMode::kDws, StealPolicy::kFailedStealsSaturation + 5);
  EXPECT_EQ(p.t_sleep(), StealPolicy::kFailedStealsSaturation);
  p.set_t_sleep(StealPolicy::kFailedStealsSaturation + 1000);
  EXPECT_EQ(p.t_sleep(), StealPolicy::kFailedStealsSaturation);
  p.set_t_sleep(7);
  EXPECT_EQ(p.t_sleep(), 7);
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

TEST(StealPolicy, BwsAlwaysYields) {
  StealPolicy p(SchedMode::kBws, 4);
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

TEST(StealPolicy, MidRunThresholdRaiseCannotReArmASpuriousSleep) {
  // Audit of the set_t_sleep / saturation interplay (adaptive T_SLEEP
  // raises the threshold mid-run). Two hazards were suspected:
  //  (a) raising the threshold past the saturation rail leaves a worker
  //      whose counter is pinned at the rail unable to *ever* sleep, and
  //  (b) a counter that ran past an old (small) threshold without
  //      sleeping — impossible in DWS, where the threshold-th failure
  //      sleeps and resets, but reachable by switching a policy's
  //      threshold while yielding — fires a "spurious" sleep on the next
  //      failure even though the new, larger threshold wasn't reached.
  // (a) is prevented by the clamp; (b) is unreachable because the counter
  // can only exceed a DWS threshold by the sleep that resets it.
  StealPolicy p(SchedMode::kDws, 8);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(p.on_steal_failed(), StealOutcome::kYield);
  }
  // Raise mid-episode, far past the rail: the clamp keeps the threshold
  // reachable, and the in-flight failure streak keeps yielding.
  p.set_t_sleep(StealPolicy::kFailedStealsSaturation + 12345);
  EXPECT_EQ(p.t_sleep(), StealPolicy::kFailedStealsSaturation);
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(p.on_steal_failed(), StealOutcome::kYield);
  }
  // Drive the counter to the rail: the clamped threshold still fires.
  while (p.on_steal_failed() != StealOutcome::kSleep) {
  }
  EXPECT_EQ(p.failed_steals(), StealPolicy::kFailedStealsSaturation);
  p.on_sleep();
  EXPECT_EQ(p.failed_steals(), 0);
}

TEST(StealPolicy, SleepFiresIffCounterMeetsThresholdUnderRandomRaises) {
  // Property sweep for the same interplay: across arbitrary interleavings
  // of failures and threshold changes (including raises past the rail and
  // drops below the current count), kSleep is returned exactly when the
  // post-increment counter is >= the *clamped* threshold — never early,
  // never skipped. A shadow model tracks the expected state.
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;  // splitmix64 stream
  auto rnd = [&x] {
    std::uint64_t z = (x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  };
  StealPolicy p(SchedMode::kDws, 4);
  int shadow_failed = 0;
  int shadow_threshold = 4;
  for (int step = 0; step < 200000; ++step) {
    if (rnd() % 8 == 0) {
      // Mix small thresholds, the rail neighbourhood, and beyond-rail.
      const int raw =
          static_cast<int>(rnd() % (2u * StealPolicy::kFailedStealsSaturation));
      p.set_t_sleep(raw);
      shadow_threshold = std::min(raw, StealPolicy::kFailedStealsSaturation);
      ASSERT_EQ(p.t_sleep(), shadow_threshold);
      continue;
    }
    const StealOutcome out = p.on_steal_failed();
    if (shadow_failed < StealPolicy::kFailedStealsSaturation) ++shadow_failed;
    const bool should_sleep = shadow_failed >= shadow_threshold;
    ASSERT_EQ(out, should_sleep ? StealOutcome::kSleep : StealOutcome::kYield)
        << "step " << step << " failed=" << shadow_failed
        << " threshold=" << shadow_threshold;
    if (should_sleep) {
      p.on_sleep();
      shadow_failed = 0;
    }
  }
}

TEST(ConfigTSleep, DefaultsToMachineWidth) {
  Config cfg;
  cfg.t_sleep = -1;
  EXPECT_EQ(cfg.effective_t_sleep(16), 16);
  EXPECT_EQ(cfg.effective_t_sleep(4), 4);
  cfg.t_sleep = 32;
  EXPECT_EQ(cfg.effective_t_sleep(16), 32);
  cfg.t_sleep = 0;
  EXPECT_EQ(cfg.effective_t_sleep(16), 0);
}

TEST(SchedModeNames, RoundTrip) {
  for (SchedMode m : {SchedMode::kClassic, SchedMode::kAbp, SchedMode::kEp,
                      SchedMode::kDws, SchedMode::kDwsNc, SchedMode::kBws}) {
    SchedMode parsed{};
    ASSERT_TRUE(parse_mode(to_string(m), parsed)) << to_string(m);
    EXPECT_EQ(parsed, m);
  }
  SchedMode out{};
  EXPECT_FALSE(parse_mode("bogus", out));
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

// The one adaptive-T_SLEEP rule both executors step.
TEST(AdaptiveTSleep, EscalationStartsFromZeroAndCapsAt64xMaxBaseOne) {
  EXPECT_EQ(AdaptiveTSleep::escalate(0.0, 0), 1.0);
  EXPECT_EQ(AdaptiveTSleep::escalate(5.0, 4), 10.0);
  EXPECT_EQ(AdaptiveTSleep::escalate(40.0, 0), 64.0);  // base 0 still moves
  EXPECT_EQ(AdaptiveTSleep::escalate(200.0, 4), 256.0);
}

TEST(AdaptiveTSleep, DecayKeepsFractionsAndStopsAtBase) {
  EXPECT_DOUBLE_EQ(AdaptiveTSleep::decay(16.0, 4), 15.52);
  EXPECT_DOUBLE_EQ(AdaptiveTSleep::decay(15.52, 4), 15.52 * 0.97);
  EXPECT_EQ(AdaptiveTSleep::threshold(15.52 * 0.97), 15);
  EXPECT_EQ(AdaptiveTSleep::decay(4.1, 4), 4.0);
}

TEST(AdaptiveTSleep, PrematureMeansShorterThanOnePeriod) {
  EXPECT_TRUE(AdaptiveTSleep::premature(5.0, 10.0));
  EXPECT_FALSE(AdaptiveTSleep::premature(10.0, 10.0));
  EXPECT_FALSE(AdaptiveTSleep::premature(15.0, 10.0));
}

}  // namespace
}  // namespace dws

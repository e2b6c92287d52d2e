// Tests for the real-runtime extension features: work-sharing mode
// (Config::work_sharing) and the adaptive T_SLEEP controller
// (Config::adaptive_t_sleep) on live threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace dws::rt {
namespace {

using namespace std::chrono_literals;

Config base_cfg(SchedMode mode) {
  Config cfg;
  cfg.mode = mode;
  cfg.num_cores = 4;
  cfg.pin_threads = false;
  cfg.coordinator_period_ms = 2.0;
  return cfg;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 3000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

class WorkSharingRuntime : public ::testing::TestWithParam<SchedMode> {};

TEST_P(WorkSharingRuntime, ParallelForIsCorrect) {
  Config cfg = base_cfg(GetParam());
  cfg.work_sharing = true;
  Scheduler sched(cfg);
  std::vector<std::atomic<int>> hits(5000);
  parallel_for(sched, 0, 5000, 32, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < 5000; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST_P(WorkSharingRuntime, NoStealsEverHappen) {
  Config cfg = base_cfg(GetParam());
  cfg.work_sharing = true;
  Scheduler sched(cfg);
  std::atomic<int> n{0};
  sched.run([&] {
    TaskGroup g;
    for (int i = 0; i < 200; ++i) sched.spawn(g, [&] { n.fetch_add(1); });
    sched.wait(g);
  });
  EXPECT_EQ(n.load(), 200);
  // Every task went through the central queue: deques stayed empty.
  EXPECT_EQ(sched.stats().totals.steals, 0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, WorkSharingRuntime,
                         ::testing::Values(SchedMode::kAbp, SchedMode::kDws),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(WorkSharingRuntime2, SleepWakeStillWorks) {
  Config cfg = base_cfg(SchedMode::kDws);
  cfg.work_sharing = true;
  Scheduler sched(cfg);
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == 4; }));
  std::atomic<int> n{0};
  parallel_for_each_index(sched, 0, 500, 4,
                          [&](std::int64_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 500);
  // A wake is counted once the worker already runs; wait for the count.
  EXPECT_TRUE(
      eventually([&] { return sched.stats().coordinator_wakes > 0; }));
}

TEST(AdaptiveTSleepRuntime, ThresholdStartsAtBase) {
  Config cfg = base_cfg(SchedMode::kDws);
  cfg.adaptive_t_sleep = true;
  cfg.t_sleep = 8;
  Scheduler sched(cfg);
  EXPECT_EQ(sched.current_t_sleep(), 8);
}

TEST(AdaptiveTSleepRuntime, EscalationDoublesAndCaps) {
  Config cfg = base_cfg(SchedMode::kDws);
  cfg.adaptive_t_sleep = true;
  cfg.t_sleep = 4;
  Scheduler sched(cfg);
  for (int i = 0; i < 100; ++i) sched.step_t_sleep(&AdaptiveTSleep::escalate);
  EXPECT_EQ(sched.current_t_sleep(), 4 * 64);  // capped at 64x base
}

TEST(AdaptiveTSleepRuntime, DecayReturnsToBase) {
  Config cfg = base_cfg(SchedMode::kDws);
  cfg.adaptive_t_sleep = true;
  cfg.t_sleep = 4;
  Scheduler sched(cfg);
  sched.step_t_sleep(&AdaptiveTSleep::escalate);
  sched.step_t_sleep(&AdaptiveTSleep::escalate);
  ASSERT_GT(sched.current_t_sleep(), 4);
  for (int i = 0; i < 500; ++i) sched.step_t_sleep(&AdaptiveTSleep::decay);
  EXPECT_EQ(sched.current_t_sleep(), 4);
}

TEST(AdaptiveTSleepRuntime, TracksTheSharedControllerStepForStep) {
  // Regression: the runtime once truncated each decay step to int, so from
  // 16 with base 4 its second decay gave 14 where the shared controller's
  // double state (which the simulator also steps) gives 15.
  Config cfg = base_cfg(SchedMode::kDws);
  cfg.adaptive_t_sleep = true;
  cfg.t_sleep = 4;
  cfg.coordinator_period_ms = 1e9;  // no tick decays behind the script
  Scheduler sched(cfg);
  double model = 4.0;
  const std::string script = "EEDDDDDDEDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDDD";
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (script[i] == 'E') {
      sched.step_t_sleep(&AdaptiveTSleep::escalate);
      model = AdaptiveTSleep::escalate(model, 4);
    } else {
      sched.step_t_sleep(&AdaptiveTSleep::decay);
      model = AdaptiveTSleep::decay(model, 4);
    }
    ASSERT_EQ(sched.current_t_sleep(), AdaptiveTSleep::threshold(model))
        << "step " << i << " (" << script[i] << ")";
  }
}

TEST(AdaptiveTSleepRuntime, ChurnyWorkloadEscalatesOnline) {
  // Deterministic premature-sleep cycle: with a generous short-sleep
  // horizon, *any* coordinator wake counts as premature. Force workers
  // fully asleep, then submit a burst (which wakes them): the controller
  // must escalate off the pathological base threshold.
  Config cfg = base_cfg(SchedMode::kDws);
  cfg.adaptive_t_sleep = true;
  cfg.t_sleep = 0;  // sleep on the first failed steal: maximal churn
  cfg.adaptive_short_sleep_ms = 60000.0;  // every wake is "premature"
  // A long-ish period makes the post-burst escalation check race-free
  // against the tick's decay (the check runs microseconds after the
  // wake; the next decay is up to 20 ms away).
  cfg.coordinator_period_ms = 20.0;
  Scheduler sched(cfg);
  std::atomic<long> n{0};
  for (int burst = 0; burst < 10; ++burst) {
    ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == 4; }))
        << "burst " << burst;
    parallel_for_each_index(sched, 0, 200, 2,
                            [&](std::int64_t) { n.fetch_add(1); });
    if (sched.current_t_sleep() > 0) break;  // escalated — done
  }
  EXPECT_GT(sched.current_t_sleep(), 0)
      << "controller never escalated despite guaranteed premature wakes";
}

TEST(AdaptiveTSleepRuntime, StillCorrectUnderLoad) {
  Config cfg = base_cfg(SchedMode::kDws);
  cfg.adaptive_t_sleep = true;
  Scheduler sched(cfg);
  std::atomic<std::int64_t> sum{0};
  parallel_for(sched, 0, 50000, 64, [&](std::int64_t b, std::int64_t e) {
    std::int64_t s = 0;
    for (std::int64_t i = b; i < e; ++i) s += i;
    sum.fetch_add(s, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), 49999LL * 50000 / 2);
}

}  // namespace
}  // namespace dws::rt

// Correctness tests for the Table-2 benchmark kernels: every app must
// produce a verifiably correct result from both its serial reference and
// its parallel implementation, under multiple scheduling modes.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>

#include "apps/app.hpp"
#include "runtime/scheduler.hpp"

namespace dws::apps {
namespace {

Config test_config(SchedMode mode) {
  Config cfg;
  cfg.mode = mode;
  cfg.num_cores = 4;
  cfg.num_programs = 1;
  cfg.pin_threads = false;
  cfg.coordinator_period_ms = 2.0;
  return cfg;
}

class AppCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, SchedMode>> {};

TEST_P(AppCorrectness, SerialReferenceIsCorrect) {
  const auto& [name, mode] = GetParam();
  if (mode != SchedMode::kDws) GTEST_SKIP() << "serial: mode-independent";
  auto app = make_app(name, Scale::kTiny);
  ASSERT_NE(app, nullptr);
  app->run_serial();
  EXPECT_EQ(app->verify(), "") << name << " (serial)";
}

TEST_P(AppCorrectness, ParallelMatchesReference) {
  const auto& [name, mode] = GetParam();
  auto app = make_app(name, Scale::kTiny);
  ASSERT_NE(app, nullptr);
  rt::Scheduler sched(test_config(mode));
  app->run(sched);
  EXPECT_EQ(app->verify(), "") << name << " under " << to_string(mode);
}

TEST_P(AppCorrectness, RepeatedRunsStayCorrect) {
  const auto& [name, mode] = GetParam();
  if (mode != SchedMode::kDws) GTEST_SKIP() << "repeat: DWS only for time";
  auto app = make_app(name, Scale::kTiny);
  ASSERT_NE(app, nullptr);
  rt::Scheduler sched(test_config(mode));
  for (int round = 0; round < 3; ++round) {
    app->run(sched);
    ASSERT_EQ(app->verify(), "") << name << " round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsTimesModes, AppCorrectness,
    ::testing::Combine(::testing::Values("FFT", "PNN", "Cholesky", "LU", "GE",
                                         "Heat", "SOR", "Mergesort"),
                       ::testing::Values(SchedMode::kAbp, SchedMode::kEp,
                                         SchedMode::kDws)),
    [](const auto& info) {
      std::string s =
          std::get<0>(info.param) + "_" + to_string(std::get<1>(info.param));
      for (auto& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

TEST(AppContract, OneExternalSubmissionPerRun) {
  // App::run's contract: the phase loop runs inside one root task, so each
  // run() crosses from the caller into the scheduler exactly once however
  // many phases the kernel has (inner parallel loops spawn on workers).
  for (SchedMode mode : {SchedMode::kDws, SchedMode::kClassic}) {
    rt::Scheduler sched(test_config(mode));
    for (const char* name : kAppNames) {
      auto app = make_app(name, Scale::kSmall);
      ASSERT_NE(app, nullptr);
      for (int round = 0; round < 2; ++round) {
        const std::uint64_t before = sched.alloc_stats().external_spawns;
        app->run(sched);
        EXPECT_EQ(sched.alloc_stats().external_spawns - before, 1u)
            << name << " under " << to_string(mode) << ", run " << round;
        ASSERT_EQ(app->verify(), "") << name << " under " << to_string(mode);
      }
    }
  }
}

TEST(AppRegistry, KnowsAllEightAndRejectsUnknown) {
  for (const char* name : kAppNames) {
    EXPECT_NE(make_app(name, Scale::kTiny), nullptr) << name;
  }
  EXPECT_EQ(make_app("NotAnApp", Scale::kTiny), nullptr);
  const auto all = make_all_apps(Scale::kTiny);
  ASSERT_EQ(all.size(), kNumApps);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_STREQ(all[i]->name(), kAppNames[i]);
  }
}

TEST(AppRegistry, ScalesProduceDifferentProblemSizes) {
  // Indirect check: larger scales take longer serially. Compare via a
  // structural proxy (tiny must verify fast; we just ensure construction
  // succeeds at every scale).
  for (Scale scale : {Scale::kTiny, Scale::kSmall}) {
    for (const char* name : kAppNames) {
      EXPECT_NE(make_app(name, scale), nullptr)
          << name << " scale " << static_cast<int>(scale);
    }
  }
}

TEST(AppDeterminism, SameSeedSameResult) {
  auto a = make_app("Mergesort", Scale::kTiny, 7);
  auto b = make_app("Mergesort", Scale::kTiny, 7);
  a->run_serial();
  b->run_serial();
  EXPECT_EQ(a->verify(), "");
  EXPECT_EQ(b->verify(), "");
}

}  // namespace
}  // namespace dws::apps

// Reproduction tests: the paper's evaluation claims, encoded as CI.
//
// These run the same experiments as the bench binaries at reduced scale
// and assert the *orderings* the paper reports (never absolute numbers).
// If a refactor breaks the demand-aware machinery, these tests — not just
// a human reading bench output — catch the regression.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/experiment.hpp"
#include "harness/mixes.hpp"

namespace dws::harness {
namespace {

/// Shared scaled-down experiment state (computed once; baselines dominate
/// the cost).
class Reproduction : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    cfg_ = new ExperimentConfig();
    cfg_->work_scale = 0.5;
    cfg_->target_runs = 3;
    cfg_->baseline_runs = 3;
    baselines_ = new std::map<std::string, double>(run_solo_baselines(*cfg_));
  }
  static void TearDownTestSuite() {
    delete baselines_;
    delete cfg_;
  }

  static double mix_sum(std::pair<unsigned, unsigned> mix, SchedMode mode) {
    return mix_total_normalized(run_mix(*cfg_, mix, mode, *baselines_));
  }

  static ExperimentConfig* cfg_;
  static std::map<std::string, double>* baselines_;
};

ExperimentConfig* Reproduction::cfg_ = nullptr;
std::map<std::string, double>* Reproduction::baselines_ = nullptr;

TEST_F(Reproduction, Fig4DwsBeatsAbpOnEveryMixTotal) {
  // §4.1: "DWS significantly improves the performance of co-running
  // programs" vs ABP — per-mix totals, every mix.
  for (const auto& mix : kFigureMixes) {
    const double abp = mix_sum(mix, SchedMode::kAbp);
    const double dws = mix_sum(mix, SchedMode::kDws);
    EXPECT_LT(dws, abp * 1.02) << "mix " << mix_label(mix);
  }
}

TEST_F(Reproduction, Fig4DwsMatchesOrBeatsEpOnEveryMixTotal) {
  // §4.1: DWS vs EP — the adaptive allocation must never lose real ground
  // to the static one (small tolerance for exchange overhead).
  for (const auto& mix : kFigureMixes) {
    const double ep = mix_sum(mix, SchedMode::kEp);
    const double dws = mix_sum(mix, SchedMode::kDws);
    EXPECT_LT(dws, ep * 1.10) << "mix " << mix_label(mix);
  }
}

TEST_F(Reproduction, Fig4DwsWinsBigOnDemandAsymmetricMix) {
  // The headline: on (1, 8) — scalable FFT + unscalable Mergesort — DWS
  // must clearly beat EP (paper: up to 37.1% on real hardware; at this
  // reduced scale the margin is a few percent). The margin tightened from
  // 5% to 3% when the Algorithm-1 off-by-one was fixed (StealPolicy now
  // sleeps on the T_SLEEP-th failed sweep, not the (T_SLEEP+1)-th), which
  // costs DWS slightly on this mix at T_SLEEP = k; the DWS < EP ordering
  // — the paper's actual claim — is unchanged.
  const double ep = mix_sum({1, 8}, SchedMode::kEp);
  const double dws = mix_sum({1, 8}, SchedMode::kDws);
  EXPECT_LT(dws, ep * 0.97) << "no demand-asymmetry gain on (1,8)";
}

TEST_F(Reproduction, Fig4DwsBalancesCoRunners) {
  // §2/§4.1: ABP's unfairness can slow one program 5-10x while its
  // partner coasts; DWS keeps co-runners within a modest factor.
  for (const auto& mix : kFigureMixes) {
    const MixRun dws = run_mix(*cfg_, mix, SchedMode::kDws, *baselines_);
    const double hi = std::max(dws.first.normalized, dws.second.normalized);
    const double lo = std::min(dws.first.normalized, dws.second.normalized);
    EXPECT_LT(hi / lo, 1.6) << "mix " << mix_label(mix) << " unbalanced";
  }
}

TEST_F(Reproduction, Fig5DwsNcWorseThanDwsOnEveryMixTotal) {
  // §4.2: the coordinator's core exchange is what makes DWS work.
  for (const auto& mix : kFigureMixes) {
    const double nc = mix_sum(mix, SchedMode::kDwsNc);
    const double dws = mix_sum(mix, SchedMode::kDws);
    EXPECT_LT(dws, nc * 1.02) << "mix " << mix_label(mix);
  }
}

TEST_F(Reproduction, Fig6TSleepExtremesAreWorseThanTheKnee) {
  // §4.3: performance is U-shaped in T_SLEEP; both extremes lose to the
  // paper-recommended region.
  auto sum_at = [&](int t_sleep) {
    ExperimentConfig cfg = *cfg_;
    cfg.params.t_sleep = t_sleep;
    return mix_total_normalized(
        run_mix(cfg, {1, 8}, SchedMode::kDws, *baselines_));
  };
  const double tiny = sum_at(0);
  const double knee = std::min(sum_at(4), sum_at(16));
  const double huge = sum_at(512);
  EXPECT_GT(tiny, knee * 0.995) << "T_SLEEP=0 should not beat the knee";
  EXPECT_GT(huge, knee * 1.02) << "T_SLEEP=512 should clearly lose";
}

TEST_F(Reproduction, Section44NoSingleProgramDegradation) {
  // §4.4: solo DWS within a few percent of traditional work-stealing.
  // PNN is exempted (documented: its irregular lulls cost one coordinator
  // period; see EXPERIMENTS.md).
  for (unsigned id = 1; id <= 8; ++id) {
    const std::string name = app_name(id);
    if (name == "PNN") continue;
    const auto profile = apps::make_sim_profile(name, cfg_->work_scale);
    auto solo = [&](SchedMode mode) {
      return sim::simulate_solo(cfg_->params, spec_for(profile, mode, 3))
          .programs[0]
          .mean_run_time_us;
    };
    const double classic = solo(SchedMode::kClassic);
    const double dws = solo(SchedMode::kDws);
    EXPECT_LT(dws, classic * 1.05) << name;
  }
}

TEST_F(Reproduction, CacheContentionClaimHolds) {
  // §2.1 / §4.1: on the memory-bound mix, ABP's cache penalty dwarfs
  // DWS's (space-sharing avoids cross-program thrash).
  const MixRun abp = run_mix(*cfg_, {6, 7}, SchedMode::kAbp, *baselines_);
  const MixRun dws = run_mix(*cfg_, {6, 7}, SchedMode::kDws, *baselines_);
  const double abp_pen =
      abp.first.raw.cache_penalty_us + abp.second.raw.cache_penalty_us;
  const double dws_pen =
      dws.first.raw.cache_penalty_us + dws.second.raw.cache_penalty_us;
  EXPECT_GT(abp_pen, 5.0 * dws_pen);
}

}  // namespace
}  // namespace dws::harness

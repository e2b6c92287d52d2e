// Tests for the simulator app profiles: validity, shape properties that
// the figure reproductions depend on, and a sanity run through the engine.
#include <gtest/gtest.h>

#include "apps/profiles.hpp"
#include "harness/experiment.hpp"
#include "sim/engine.hpp"

namespace dws::apps {
namespace {

TEST(Profiles, AllEightAreValidDags) {
  for (const auto& p : make_all_sim_profiles()) {
    EXPECT_EQ(p.dag.validate(), "") << p.name;
    EXPECT_GT(p.dag.total_work(), 0.0) << p.name;
    EXPECT_GE(p.mem_intensity, 0.0) << p.name;
    EXPECT_LE(p.mem_intensity, 1.0) << p.name;
  }
}

TEST(Profiles, UnknownNameThrows) {
  EXPECT_THROW(make_sim_profile("Quicksort"), std::invalid_argument);
}

TEST(Profiles, WorkScaleScalesTotalWork) {
  const auto base = make_sim_profile("FFT", 1.0);
  const auto doubled = make_sim_profile("FFT", 2.0);
  EXPECT_GT(doubled.dag.total_work(), 1.5 * base.dag.total_work());
}

TEST(Profiles, FftIsMoreScalableThanMergesort) {
  // The Fig-4 mixes rely on this contrast: FFT's average parallelism
  // (T1/Tinf) must comfortably exceed Mergesort's, whose serial merges
  // cap it.
  const auto fft = make_sim_profile("FFT");
  const auto ms = make_sim_profile("Mergesort");
  const double par_fft = fft.dag.total_work() / fft.dag.critical_path();
  const double par_ms = ms.dag.total_work() / ms.dag.critical_path();
  EXPECT_GT(par_fft, 2.0 * par_ms)
      << "FFT parallelism " << par_fft << " vs Mergesort " << par_ms;
  EXPECT_GT(par_fft, 64.0);
  EXPECT_LT(par_ms, 32.0);
}

TEST(Profiles, StencilsAreMemoryBound) {
  EXPECT_GE(make_sim_profile("Heat").mem_intensity, 0.9);
  EXPECT_GE(make_sim_profile("SOR").mem_intensity, 0.9);
  EXPECT_LE(make_sim_profile("PNN").mem_intensity, 0.4);
}

TEST(Profiles, DecreasingShapesHaveShrinkingWidth) {
  // LU/GE/Cholesky: average parallelism must sit far below the peak phase
  // width (quadratic width decay => long narrow tail), yet stay well
  // above the machine width so wide phases can use every core.
  for (const char* name : {"Cholesky", "LU", "GE"}) {
    const auto p = make_sim_profile(name);
    const double par = p.dag.total_work() / p.dag.critical_path();
    EXPECT_GT(par, 16.0) << name;
    EXPECT_LT(par, 64.0) << name;  // peak widths are 96-128
  }
}

TEST(Profiles, MergesortDagMergesDoubleTowardRoot) {
  const sim::TaskDag dag = make_mergesort_dag(3, 10.0, 2.0, 0.5);
  EXPECT_EQ(dag.validate(), "");
  // 8 leaves, 7 splits, 7 merges.
  EXPECT_EQ(dag.size(), 22u);
  // Total merge work: level sums 8*2 (root) + 2*(4*2) + 4*(2*2) = 48.
  const double total = dag.total_work();
  EXPECT_NEAR(total, 8 * 10.0 + 7 * 0.5 + 48.0, 1e-9);
}

TEST(Profiles, AllRunnableOnThePaperMachine) {
  // Smoke: every profile completes solo on the 16-core simulated machine
  // in a sane amount of virtual time.
  sim::SimParams params;  // defaults = paper machine
  for (const auto& p : make_all_sim_profiles(0.25)) {
    const sim::SimResult r = sim::simulate_solo(
        params, harness::spec_for(p, SchedMode::kDws, 1));
    EXPECT_FALSE(r.hit_time_limit) << p.name;
    EXPECT_EQ(r.programs[0].tasks_executed, p.dag.size()) << p.name;
    // Solo DWS must beat the serial time by a sane margin on 16 cores.
    EXPECT_LT(r.programs[0].mean_run_time_us, p.dag.total_work()) << p.name;
  }
}

}  // namespace
}  // namespace dws::apps

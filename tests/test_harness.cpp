// Tests for the experiment harness: mix registry, table/CSV reporting,
// Eq.-2 measurement, and normalization against baselines.
#include <gtest/gtest.h>

#include <sstream>

#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"

namespace dws::harness {
namespace {

TEST(Mixes, AppNamesMatchTable2) {
  EXPECT_STREQ(app_name(1), "FFT");
  EXPECT_STREQ(app_name(2), "PNN");
  EXPECT_STREQ(app_name(3), "Cholesky");
  EXPECT_STREQ(app_name(4), "LU");
  EXPECT_STREQ(app_name(5), "GE");
  EXPECT_STREQ(app_name(6), "Heat");
  EXPECT_STREQ(app_name(7), "SOR");
  EXPECT_STREQ(app_name(8), "Mergesort");
  EXPECT_THROW((void)app_name(0), std::out_of_range);
  EXPECT_THROW((void)app_name(9), std::out_of_range);
}

TEST(Mixes, FigureMixesAreThePapersEight) {
  ASSERT_EQ(kFigureMixes.size(), 8u);
  EXPECT_EQ(kFigureMixes[0], (std::pair<unsigned, unsigned>{1, 8}));
  EXPECT_EQ(kFigureMixes[1], (std::pair<unsigned, unsigned>{2, 7}));
  for (const auto& mix : kFigureMixes) {
    EXPECT_GE(mix.first, 1u);
    EXPECT_LE(mix.first, 8u);
    EXPECT_GE(mix.second, 1u);
    EXPECT_LE(mix.second, 8u);
    EXPECT_NE(mix.first, mix.second);
  }
}

TEST(Mixes, LabelFormat) {
  EXPECT_EQ(mix_label({1, 8}), "(1, 8)");
  EXPECT_EQ(mix_label({3, 6}), "(3, 6)");
}

TEST(Report, TableAlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("longer-name"), std::string::npos);
  EXPECT_NE(out.find("value"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(Report, ShortRowsArePadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only-one"});
  std::ostringstream os;
  t.print(os);  // must not crash; missing cells render empty
  EXPECT_NE(os.str().find("only-one"), std::string::npos);
}

TEST(Report, CsvRoundTrip) {
  Table t({"h1", "h2"});
  t.add_row({"a", "1.5"});
  t.add_row({"b", "2.0"});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "h1,h2\na,1.5\nb,2.0\n");
}

TEST(Report, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(Table::num(1.0, 0), "1");
  EXPECT_EQ(Table::num(-0.5, 1), "-0.5");
}

TEST(Experiment, BaselinesCoverAllEightApps) {
  ExperimentConfig cfg;
  cfg.work_scale = 0.2;  // small for test speed
  cfg.baseline_runs = 2;
  const auto baselines = run_solo_baselines(cfg);
  ASSERT_EQ(baselines.size(), 8u);
  for (unsigned id = 1; id <= 8; ++id) {
    const auto it = baselines.find(app_name(id));
    ASSERT_NE(it, baselines.end()) << app_name(id);
    EXPECT_GT(it->second, 0.0) << app_name(id);
  }
}

TEST(Experiment, MixRunNormalizesAgainstBaselines) {
  ExperimentConfig cfg;
  cfg.work_scale = 0.2;
  cfg.baseline_runs = 2;
  cfg.target_runs = 2;
  const auto baselines = run_solo_baselines(cfg);
  const MixRun run = run_mix(cfg, {1, 8}, SchedMode::kEp, baselines);
  EXPECT_EQ(run.mode, "EP");
  EXPECT_EQ(run.first.name, "FFT");
  EXPECT_EQ(run.second.name, "Mergesort");
  // Co-running on half the machine cannot beat the solo-16-core baseline
  // by more than measurement slack, and must not be absurdly slow.
  EXPECT_GT(run.first.normalized, 0.8);
  EXPECT_LT(run.first.normalized, 20.0);
  EXPECT_GT(run.second.normalized, 0.8);
  EXPECT_LT(run.second.normalized, 20.0);
  EXPECT_NEAR(mix_total_normalized(run),
              run.first.normalized + run.second.normalized, 1e-12);
}

TEST(Experiment, MissingBaselineThrows) {
  ExperimentConfig cfg;
  cfg.work_scale = 0.2;
  std::map<std::string, double> empty;
  EXPECT_THROW(run_mix(cfg, {1, 8}, SchedMode::kEp, empty),
               std::invalid_argument);
}

TEST(Experiment, MeanRunTimeUsesEqTwo) {
  // Eq. 2: mean over the first target_runs repetitions. Verify against
  // the raw per-run times the engine reports.
  ExperimentConfig cfg;
  cfg.work_scale = 0.2;
  cfg.baseline_runs = 2;
  cfg.target_runs = 3;
  const auto baselines = run_solo_baselines(cfg);
  const MixRun run = run_mix(cfg, {1, 2}, SchedMode::kDws, baselines);
  for (const auto* slot : {&run.first, &run.second}) {
    ASSERT_GE(slot->raw.run_times_us.size(), 3u);
    double sum = 0.0;
    for (unsigned i = 0; i < 3; ++i) sum += slot->raw.run_times_us[i];
    EXPECT_NEAR(slot->raw.mean_run_time_us, sum / 3.0, 1e-9);
    EXPECT_NEAR(slot->mean_us, slot->raw.mean_run_time_us, 1e-9);
  }
}

}  // namespace
}  // namespace dws::harness

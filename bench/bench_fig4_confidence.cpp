// Fig. 4 with schedule-sensitivity bars: replicates every mix × mode over
// several engine seeds (victim selection, free-core shuffles) and reports
// mean ± stddev of the normalized times. The simulator is deterministic
// per seed, so the spread isolates *scheduling* sensitivity — if DWS's
// advantage only existed for lucky seeds, it would show here.
//
// Usage: bench_fig4_confidence [--scale=1.0] [--runs=3] [--seeds=5]
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"runs", "scale", "seeds"});
  harness::ExperimentConfig cfg;
  cfg.work_scale = args.get_double("scale", 1.0);
  cfg.target_runs = static_cast<unsigned>(args.get_int("runs", 3));
  const auto seeds = static_cast<unsigned>(args.get_int("seeds", 5));

  std::cout << "=== Fig. 4 with seed-replication (" << seeds
            << " seeds; mean ± stddev of normalized time) ===\n\n";

  const auto baselines = harness::run_solo_baselines(cfg);

  harness::Table table({"mix", "prog", "ABP", "EP", "DWS"});
  auto cell = [](const util::Samples& s) {
    return harness::Table::num(s.mean(), 3) + " ± " +
           harness::Table::num(s.stddev(), 3);
  };
  for (const auto& mix : harness::kFigureMixes) {
    const auto abp = harness::run_mix_replicated(cfg, mix, SchedMode::kAbp,
                                                 baselines, seeds);
    const auto ep = harness::run_mix_replicated(cfg, mix, SchedMode::kEp,
                                                baselines, seeds);
    const auto dws = harness::run_mix_replicated(cfg, mix, SchedMode::kDws,
                                                 baselines, seeds);
    table.add_row({harness::mix_label(mix),
                   harness::app_name(mix.first),
                   cell(abp.first_normalized), cell(ep.first_normalized),
                   cell(dws.first_normalized)});
    table.add_row({"", harness::app_name(mix.second),
                   cell(abp.second_normalized), cell(ep.second_normalized),
                   cell(dws.second_normalized)});
  }
  table.print(std::cout);
  std::cout << "\n(A DWS mean more than a few stddevs below ABP's confirms"
            << " the Fig. 4 ordering is schedule-robust, not a lucky"
            << " seed.)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

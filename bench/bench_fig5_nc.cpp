// Fig. 5: DWS-NC vs DWS on the eight mixes (§4.2 — the value of the
// coordinator's core exchange). DWS-NC sleeps/wakes workers identically
// but never keeps cores disjoint, so it retains ABP-style interference.
//
// Paper's result: DWS-NC performs worse than DWS on every mix.
//
// Usage: bench_fig5_nc [--scale=1.0] [--runs=4] [--csv]
#include <iostream>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"csv", "runs", "scale"});
  harness::ExperimentConfig cfg;
  cfg.work_scale = args.get_double("scale", 1.0);
  cfg.target_runs = static_cast<unsigned>(args.get_int("runs", 4));

  std::cout << "=== Fig. 5: DWS-NC vs DWS (effectiveness of the"
            << " coordinator) ===\n"
            << "(normalized execution time vs solo baseline; lower is"
            << " better)\n\n";

  const auto baselines = harness::run_solo_baselines(cfg);

  harness::Table table(
      {"mix", "prog", "DWS-NC", "DWS", "DWS vs DWS-NC"});
  std::vector<double> nc_norms, dws_norms;
  for (const auto& mix : harness::kFigureMixes) {
    const auto nc = harness::run_mix(cfg, mix, SchedMode::kDwsNc, baselines);
    const auto dws = harness::run_mix(cfg, mix, SchedMode::kDws, baselines);
    auto emit = [&](const harness::MixRun::PerProgram& n,
                    const harness::MixRun::PerProgram& d, bool first_row) {
      nc_norms.push_back(n.normalized);
      dws_norms.push_back(d.normalized);
      table.add_row(
          {first_row ? harness::mix_label(mix) : "", n.name,
           harness::Table::num(n.normalized), harness::Table::num(d.normalized),
           harness::Table::num(100.0 * (1.0 - d.normalized / n.normalized),
                               1) +
               "%"});
    };
    emit(nc.first, dws.first, true);
    emit(nc.second, dws.second, false);
  }

  if (args.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nGeomean normalized time: DWS-NC "
            << harness::Table::num(util::geomean(nc_norms)) << "  DWS "
            << harness::Table::num(util::geomean(dws_norms))
            << "  (paper: DWS-NC worse than DWS on every mix)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

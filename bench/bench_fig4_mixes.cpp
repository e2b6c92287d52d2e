// Fig. 4: normalized execution time of the eight benchmark mixes under
// ABP (time-sharing + yield), EP (space-sharing + equipartition) and DWS.
//
// Paper's result: DWS reduces execution time by up to 32.3% vs ABP and up
// to 37.1% vs EP. We reproduce the *shape*: DWS <= ABP and <= EP on every
// mix, with double-digit-% gains on demand-asymmetric mixes, and the (2,7)
// locality effect (§4.1) visible in the cache-penalty column.
//
// Usage: bench_fig4_mixes [--scale=1.0] [--runs=4] [--csv]
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

  std::cout << "=== Fig. 4: benchmark mixes under ABP / EP / DWS ===\n"
            << "(normalized execution time vs solo-on-16-cores baseline;"
            << " lower is better)\n\n";

  const auto baselines = harness::run_solo_baselines(cfg);

  harness::Table table({"mix", "prog", "ABP", "EP", "DWS", "DWS vs ABP",
                        "DWS vs EP", "DWS cache-penalty share"});
  double worst_vs_abp = 0.0, worst_vs_ep = 0.0;
  std::vector<double> abp_norms, ep_norms, dws_norms;

  for (const auto& mix : harness::kFigureMixes) {
    const auto abp = harness::run_mix(cfg, mix, SchedMode::kAbp, baselines);
    const auto ep = harness::run_mix(cfg, mix, SchedMode::kEp, baselines);
    const auto dws = harness::run_mix(cfg, mix, SchedMode::kDws, baselines);

    auto emit = [&](const harness::MixRun::PerProgram& a,
                    const harness::MixRun::PerProgram& e,
                    const harness::MixRun::PerProgram& d, bool first_row) {
      const double vs_abp = 100.0 * (1.0 - d.normalized / a.normalized);
      const double vs_ep = 100.0 * (1.0 - d.normalized / e.normalized);
      worst_vs_abp = std::max(worst_vs_abp, vs_abp);
      worst_vs_ep = std::max(worst_vs_ep, vs_ep);
      abp_norms.push_back(a.normalized);
      ep_norms.push_back(e.normalized);
      dws_norms.push_back(d.normalized);
      const double penalty_share =
          d.raw.exec_time_us > 0
              ? d.raw.cache_penalty_us / d.raw.exec_time_us
              : 0.0;
      table.add_row({first_row ? harness::mix_label(mix) : "",
                     a.name,
                     harness::Table::num(a.normalized),
                     harness::Table::num(e.normalized),
                     harness::Table::num(d.normalized),
                     harness::Table::num(vs_abp, 1) + "%",
                     harness::Table::num(vs_ep, 1) + "%",
                     harness::Table::num(100.0 * penalty_share, 1) + "%"});
    };
    emit(abp.first, ep.first, dws.first, true);
    emit(abp.second, ep.second, dws.second, false);
  }

  if (args.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nSummary (paper: up to 32.3% vs ABP, up to 37.1% vs EP):\n"
            << "  max reduction DWS vs ABP: "
            << harness::Table::num(worst_vs_abp, 1) << "%\n"
            << "  max reduction DWS vs EP:  "
            << harness::Table::num(worst_vs_ep, 1) << "%\n"
            << "  geomean normalized time:  ABP "
            << harness::Table::num(util::geomean(abp_norms)) << "  EP "
            << harness::Table::num(util::geomean(ep_norms)) << "  DWS "
            << harness::Table::num(util::geomean(dws_norms)) << "\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

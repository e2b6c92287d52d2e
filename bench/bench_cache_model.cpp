// Cache-model ablation: how much of DWS's advantage over ABP on
// memory-bound mixes comes from the cache-contention mechanism (§2.1
// drawback 2, §4.1)? Sweeps the private-cache miss penalty from 0 (cache
// model off) upward and reports the ABP/DWS gap on the memory-bound mix
// (6, 7) = Heat + SOR.
//
// Usage: bench_cache_model [--scale=1.0] [--runs=3]
#include <iostream>

#include "apps/profiles.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"runs", "scale"});
  const double scale = args.get_double("scale", 1.0);
  const auto runs = static_cast<unsigned>(args.get_int("runs", 3));

  const auto heat = apps::make_sim_profile("Heat", scale);
  const auto sor = apps::make_sim_profile("SOR", scale);
  std::cout << "=== Cache-model ablation on the memory-bound mix Heat+SOR"
            << " ===\n(sum of both programs' mean run times, virtual ms;"
            << " penalty 0 disables the cache model)\n\n";

  harness::Table table({"core/LLC penalty", "ABP (ms)", "DWS (ms)",
                        "ABP/DWS ratio", "ABP cache loss", "DWS cache loss"});
  for (double penalty : {0.0, 0.2, 0.4, 0.8, 1.6}) {
    sim::SimParams params;
    params.core_miss_penalty = penalty;
    params.llc_miss_penalty = penalty * 0.875;  // keep the default ratio
    double sums[2] = {0, 0};
    double losses[2] = {0, 0};
    int idx = 0;
    for (SchedMode mode : {SchedMode::kAbp, SchedMode::kDws}) {
      sim::SimEngine engine(params,
                            {harness::spec_for(heat, mode, runs),
                             harness::spec_for(sor, mode, runs)});
      const sim::SimResult r = engine.run();
      for (const auto& p : r.programs) {
        sums[idx] += p.mean_run_time_us / 1000.0;
        losses[idx] += p.cache_penalty_us / 1000.0;
      }
      ++idx;
    }
    table.add_row({harness::Table::num(penalty, 2),
                   harness::Table::num(sums[0], 1),
                   harness::Table::num(sums[1], 1),
                   harness::Table::num(sums[0] / sums[1], 2),
                   harness::Table::num(losses[0], 1) + " ms",
                   harness::Table::num(losses[1], 1) + " ms"});
  }
  table.print(std::cout);
  std::cout << "\n(Expected shape: the ABP/DWS gap grows with the penalty"
            << " — space-sharing's advantage is precisely the avoided"
            << " cross-program cache thrash.)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

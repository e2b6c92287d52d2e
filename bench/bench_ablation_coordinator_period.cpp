// §3.4 ablation: the coordinator period T. The paper argues T = 10 ms
// balances coordinator overhead (T too small) against stale scheduling
// (T too large) and uses 10 ms throughout.
//
// Usage: bench_ablation_coordinator_period [--scale=1.0] [--runs=4]
//                                          [--periods-ms=1,2,5,10,20,50,100]
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"periods-ms", "runs", "scale"});
  harness::ExperimentConfig cfg;
  cfg.work_scale = args.get_double("scale", 1.0);
  cfg.target_runs = static_cast<unsigned>(args.get_int("runs", 4));
  const auto periods = args.get_int_list("periods-ms", {1, 2, 5, 10, 20, 50,
                                                        100});
  const std::pair<unsigned, unsigned> mix{1, 8};

  std::cout << "=== Ablation: coordinator period T for mix (1, 8) under DWS"
            << " ===\n(paper suggests T = 10 ms, §3.4)\n\n";

  const auto baselines = harness::run_solo_baselines(cfg);

  harness::Table table({"T (ms)", "p-1 FFT", "p-8 Mergesort", "sum",
                        "ticks", "wakes"});
  long best_t = -1;
  double best_sum = 1e300;
  for (long t_ms : periods) {
    cfg.params.coordinator_period_us = 1000.0 * static_cast<double>(t_ms);
    const auto run = harness::run_mix(cfg, mix, SchedMode::kDws, baselines);
    const double sum = harness::mix_total_normalized(run);
    if (sum < best_sum) {
      best_sum = sum;
      best_t = t_ms;
    }
    table.add_row({std::to_string(t_ms),
                   harness::Table::num(run.first.normalized),
                   harness::Table::num(run.second.normalized),
                   harness::Table::num(sum),
                   std::to_string(run.first.raw.coordinator_ticks +
                                  run.second.raw.coordinator_ticks),
                   std::to_string(run.first.raw.wakes +
                                  run.second.raw.wakes)});
  }
  table.print(std::cout);
  std::cout << "\nBest period: " << best_t << " ms (paper: 10 ms)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

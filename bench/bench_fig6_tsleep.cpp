// Fig. 6: impact of T_SLEEP on mix (1, 8) — FFT + Mergesort under DWS
// with T_SLEEP in {1, 2, 4, ..., 128} on the 16-core machine.
//
// Paper's result: best performance at T_SLEEP = 16 or 32 (k or 2k);
// T_SLEEP = 1 suffers wake/sleep churn, T_SLEEP = 128 wastes cores on
// useless steals.
//
// Usage: bench_fig6_tsleep [--scale=1.0] [--runs=4]
//                          [--tsleep=1,2,4,8,16,32,64,128] [--csv]
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"csv", "runs", "scale", "tsleep"});
  harness::ExperimentConfig cfg;
  cfg.work_scale = args.get_double("scale", 1.0);
  cfg.target_runs = static_cast<unsigned>(args.get_int("runs", 4));
  const auto sweep =
      args.get_int_list("tsleep", {1, 2, 4, 8, 16, 32, 64, 128});
  const std::pair<unsigned, unsigned> mix{1, 8};

  std::cout << "=== Fig. 6: T_SLEEP sweep for mix (1, 8) = FFT + Mergesort"
            << " under DWS ===\n"
            << "(normalized execution time; paper: minimum at 16 or 32 on a"
            << " 16-core machine)\n\n";

  const auto baselines = harness::run_solo_baselines(cfg);

  harness::Table table({"T_SLEEP", "p-1 FFT", "p-8 Mergesort", "sum",
                        "sleeps/run", "coord wakes/run"});
  long best_t = -1;
  double best_sum = 1e300;
  for (long t : sweep) {
    cfg.params.t_sleep = static_cast<int>(t);
    const auto run = harness::run_mix(cfg, mix, SchedMode::kDws, baselines);
    const double sum = harness::mix_total_normalized(run);
    if (sum < best_sum) {
      best_sum = sum;
      best_t = t;
    }
    const double runs =
        static_cast<double>(run.first.raw.run_times_us.size() +
                            run.second.raw.run_times_us.size());
    table.add_row({std::to_string(t),
                   harness::Table::num(run.first.normalized),
                   harness::Table::num(run.second.normalized),
                   harness::Table::num(sum),
                   harness::Table::num(
                       static_cast<double>(run.first.raw.sleeps +
                                           run.second.raw.sleeps) /
                       runs, 1),
                   harness::Table::num(
                       static_cast<double>(run.first.raw.wakes +
                                           run.second.raw.wakes) /
                       runs, 1)});
  }

  if (args.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  std::cout << "\nBest T_SLEEP: " << best_t
            << " (paper recommends k or 2k = 16 or 32)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

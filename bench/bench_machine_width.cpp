// Machine-width sweep: the paper evaluates on 16 cores only; this
// extension checks that the DWS-vs-ABP/EP ordering is not an artifact of
// that width. Mix (1, 8) on k ∈ {8, 16, 32} cores with T_SLEEP = k.
//
// Usage: bench_machine_width [--scale=1.0] [--runs=3]
#include <iostream>

#include "apps/profiles.hpp"
#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"runs", "scale"});
  const double scale = args.get_double("scale", 1.0);
  const auto runs = static_cast<unsigned>(args.get_int("runs", 3));

  const auto fft = apps::make_sim_profile("FFT", scale);
  const auto ms = apps::make_sim_profile("Mergesort", scale);

  std::cout << "=== Machine-width sweep: mix (1, 8) on k cores ===\n"
            << "(sum of normalized times; baseline = solo on the same k)\n\n";

  harness::Table table({"k", "ABP", "EP", "DWS", "DWS vs ABP", "DWS vs EP"});
  for (unsigned k : {8u, 16u, 32u}) {
    sim::SimParams params;
    params.num_cores = k;
    params.num_sockets = k / 8;

    auto solo = [&](const apps::SimAppProfile& p) {
      return sim::simulate_solo(params,
                                harness::spec_for(p, SchedMode::kAbp, runs))
          .programs[0]
          .mean_run_time_us;
    };
    const double base_fft = solo(fft);
    const double base_ms = solo(ms);

    double sums[3];
    int idx = 0;
    for (SchedMode mode :
         {SchedMode::kAbp, SchedMode::kEp, SchedMode::kDws}) {
      sim::SimEngine engine(params,
                            {harness::spec_for(fft, mode, runs),
                             harness::spec_for(ms, mode, runs)});
      const sim::SimResult r = engine.run();
      sums[idx++] = r.program("FFT").mean_run_time_us / base_fft +
                    r.program("Mergesort").mean_run_time_us / base_ms;
    }
    table.add_row(
        {std::to_string(k), harness::Table::num(sums[0]),
         harness::Table::num(sums[1]), harness::Table::num(sums[2]),
         harness::Table::num(100.0 * (1.0 - sums[2] / sums[0]), 1) + "%",
         harness::Table::num(100.0 * (1.0 - sums[2] / sums[1]), 1) + "%"});
  }
  table.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

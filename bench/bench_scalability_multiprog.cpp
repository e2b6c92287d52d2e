// Extension experiment: how does each scheme degrade as the number of
// co-running programs grows? m identical FFT instances on the 16-core
// machine, m in {1, 2, 4, 8}; we report the mean normalized time.
//
// Usage: bench_scalability_multiprog [--scale=1.0] [--runs=3] [--app=FFT]
#include <iostream>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"app", "runs", "scale"});
  const double scale = args.get_double("scale", 1.0);
  const auto runs = static_cast<unsigned>(args.get_int("runs", 3));
  const std::string app = args.get_str("app", "FFT");

  std::cout << "=== Multiprogramming scalability: m x " << app
            << " on 16 simulated cores ===\n"
            << "(mean normalized execution time across the m instances)\n\n";

  sim::SimParams params;
  const apps::SimAppProfile profile = apps::make_sim_profile(app, scale);

  // Solo baseline under plain work-stealing.
  const sim::SimProgramSpec base =
      harness::spec_for(profile, SchedMode::kAbp, runs);
  const double solo =
      sim::simulate_solo(params, base).programs[0].mean_run_time_us;

  harness::Table table({"m", "ABP", "EP", "DWS", "ideal (=m)"});
  for (unsigned m : {1u, 2u, 4u, 8u}) {
    std::vector<double> row;
    for (SchedMode mode :
         {SchedMode::kAbp, SchedMode::kEp, SchedMode::kDws}) {
      std::vector<sim::SimProgramSpec> specs;
      for (unsigned i = 0; i < m; ++i) {
        sim::SimProgramSpec s = base;
        s.name = app + "#" + std::to_string(i);
        s.mode = mode;
        specs.push_back(s);
      }
      sim::SimEngine engine(params, specs);
      const sim::SimResult r = engine.run();
      double mean = 0.0;
      for (const auto& p : r.programs) mean += p.mean_run_time_us / solo;
      row.push_back(mean / static_cast<double>(m));
    }
    table.add_row({std::to_string(m), harness::Table::num(row[0]),
                   harness::Table::num(row[1]), harness::Table::num(row[2]),
                   harness::Table::num(static_cast<double>(m))});
  }
  table.print(std::cout);
  std::cout << "\n(With identical demands EP is near-optimal; DWS must match"
            << " it, and ABP pays time-sharing interference.)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

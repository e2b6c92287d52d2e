// §4.4: "DWS does not degrade the performance of a single work-stealing
// program ... the only overhead in DWS is incurred by the coordinator.
// Our experiment shows that the overhead is negligible."
//
// Simulated 16-core machine: every Table-2 profile solo, CLASSIC vs DWS,
// virtual time. The real-thread counterpart is dws-bench's ledger metric
// runtime.coordinator.solo_overhead_ratio.<app> (benchmark/run.sh
// --trace 1).
//
// Usage: bench_single_program_overhead [--scale=1.0]
#include <iostream>

#include "apps/profiles.hpp"
#include "harness/experiment.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"

namespace {

double simulate_solo_mode(const dws::apps::SimAppProfile& profile,
                          dws::SchedMode mode) {
  return dws::sim::simulate_solo(dws::sim::SimParams{},
                                 dws::harness::spec_for(profile, mode, 3))
      .programs[0]
      .mean_run_time_us;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"scale"});
  const double scale = args.get_double("scale", 1.0);

  std::cout << "=== §4.4: single-program overhead of DWS (solo, all cores)"
            << " ===\n\n-- Simulated 16-core machine (virtual ms/run) --\n";
  harness::Table sim_table({"app", "CLASSIC", "DWS", "DWS overhead"});
  for (const auto& profile : apps::make_all_sim_profiles(scale)) {
    const double classic = simulate_solo_mode(profile, SchedMode::kClassic);
    const double dws = simulate_solo_mode(profile, SchedMode::kDws);
    sim_table.add_row(
        {profile.name, harness::Table::num(classic / 1000.0, 2),
         harness::Table::num(dws / 1000.0, 2),
         harness::Table::num(100.0 * (dws / classic - 1.0), 2) + "%"});
  }
  sim_table.print(std::cout);
  std::cout << "\n(paper: DWS matches traditional work-stealing for a single"
            << " program; coordinator overhead negligible)\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

// §4.4 extension: DWS on an asymmetric multi-core machine. The paper
// sketches: classify programs as compute- vs data-intensive; let
// compute-intensive programs take the fast cores at launch; then run DWS
// as usual. This bench measures (a) the value of that placement and
// (b) that DWS's demand-driven exchange still functions on asymmetric
// silicon.
//
// Machine: 8 fast (1.4x) + 8 slow (0.7x) cores.
//
// Usage: bench_asymmetric [--scale=1.0] [--runs=3]
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

  sim::SimParams params;  // 16 cores, 2 sockets
  params.core_speeds.assign(16, 0.7);
  for (unsigned c = 0; c < 8; ++c) params.core_speeds[c] = 1.4;

  // FFT is compute-intensive (mem 0.3); Heat is data-intensive (0.95).
  const apps::SimAppProfile fft = apps::make_sim_profile("FFT", scale);
  const apps::SimAppProfile heat = apps::make_sim_profile("Heat", scale);

  std::cout << "=== §4.4 extension: asymmetric machine (8 cores @1.4x + 8"
            << " @0.7x) ===\nMix: FFT (compute-bound) + Heat (data-bound);"
            << " placement = which program homes the fast block.\n\n";

  harness::Table table({"mode", "placement", "FFT (ms/run)", "Heat (ms/run)",
                        "sum"});
  for (SchedMode mode : {SchedMode::kEp, SchedMode::kDws}) {
    for (const bool compute_on_fast : {true, false}) {
      // Registration order decides the home block: first program homes
      // cores 0-7 (the fast block in this machine).
      std::vector<sim::SimProgramSpec> specs;
      if (compute_on_fast) {
        specs = {harness::spec_for(fft, mode, runs),
                 harness::spec_for(heat, mode, runs)};
      } else {
        specs = {harness::spec_for(heat, mode, runs),
                 harness::spec_for(fft, mode, runs)};
      }
      sim::SimEngine engine(params, specs);
      const sim::SimResult r = engine.run();
      const double t_fft = r.program("FFT").mean_run_time_us / 1000.0;
      const double t_heat = r.program("Heat").mean_run_time_us / 1000.0;
      table.add_row({to_string(mode),
                     compute_on_fast ? "FFT on fast block (paper's rule)"
                                     : "Heat on fast block",
                     harness::Table::num(t_fft, 2),
                     harness::Table::num(t_heat, 2),
                     harness::Table::num(t_fft + t_heat, 2)});
    }
  }
  table.print(std::cout);
  std::cout << "\n(Expected shape: the paper's placement rule lowers the"
            << " mix total for both modes. With this demand-saturated mix"
            << " DWS performs no exchanges and safely degenerates to EP;"
            << " the second table adds a bursty co-runner to show the"
            << " exchange working on asymmetric silicon.)\n";

  // Second experiment: FFT + Cholesky — Cholesky's narrow tails release
  // cores, so DWS should beat EP even on the asymmetric machine.
  const apps::SimAppProfile chol = apps::make_sim_profile("Cholesky", scale);
  harness::Table table2(
      {"mode", "FFT (ms/run)", "Cholesky (ms/run)", "sum", "FFT claims"});
  for (SchedMode mode : {SchedMode::kEp, SchedMode::kDws}) {
    sim::SimEngine engine(params,
                          {harness::spec_for(fft, mode, runs),
                           harness::spec_for(chol, mode, runs)});
    const sim::SimResult r = engine.run();
    const double t_fft = r.program("FFT").mean_run_time_us / 1000.0;
    const double t_chol = r.program("Cholesky").mean_run_time_us / 1000.0;
    table2.add_row({to_string(mode), harness::Table::num(t_fft, 2),
                    harness::Table::num(t_chol, 2),
                    harness::Table::num(t_fft + t_chol, 2),
                    std::to_string(r.program("FFT").cores_claimed)});
  }
  std::cout << "\n";
  table2.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

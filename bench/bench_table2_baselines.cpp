// Table 2 + §4.1 baselines: each benchmark alone on the simulated 16-core
// machine under traditional work-stealing — the "average non-interference
// execution time" every figure normalizes against.
//
// Usage: bench_table2_baselines [--scale=1.0] [--runs=10] [--csv]
#include <iostream>

#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"csv", "runs", "scale"});
  harness::ExperimentConfig cfg;
  cfg.work_scale = args.get_double("scale", 1.0);
  cfg.baseline_runs = static_cast<unsigned>(args.get_int("runs", 10));

  std::cout << "=== Table 2: benchmarks and solo baselines ===\n"
            << "Machine: " << cfg.params.num_cores << " cores / "
            << cfg.params.num_sockets << " sockets (simulated), "
            << cfg.baseline_runs << " runs each, scale " << cfg.work_scale
            << "\n\n";

  const auto baselines = harness::run_solo_baselines(cfg);

  harness::Table table({"ID", "Name", "T1 (ms)", "Tinf (ms)", "parallelism",
                        "mem", "solo-16c (ms)", "speedup"});
  for (unsigned id = 1; id <= 8; ++id) {
    const std::string name = harness::app_name(id);
    const auto profile = apps::make_sim_profile(name, cfg.work_scale);
    const double t1 = profile.dag.total_work();
    const double tinf = profile.dag.critical_path();
    const double solo = baselines.at(name);
    table.add_row({"p-" + std::to_string(id), name,
                   harness::Table::num(t1 / 1000.0, 1),
                   harness::Table::num(tinf / 1000.0, 2),
                   harness::Table::num(t1 / tinf, 1),
                   harness::Table::num(profile.mem_intensity, 2),
                   harness::Table::num(solo / 1000.0, 2),
                   harness::Table::num(t1 / solo, 2)});
  }
  if (args.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

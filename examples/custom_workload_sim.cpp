// Building a custom workload for the simulator: define your own task DAG,
// co-run it against a Table-2 profile on the simulated 16-core machine,
// and compare scheduling modes.
//
//   $ ./custom_workload_sim [--mode=DWS] [--runs=3]
//
// The custom DAG here is a pipeline-ish shape: a long serial preamble
// (one task), then a wide fan-out, then a narrow tail — a program whose
// core demand swings hard, which is where demand-aware scheduling pays.
#include <iostream>

#include "apps/profiles.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"runs"});
  const auto runs = static_cast<unsigned>(args.get_int("runs", 3));

  // ---- 1. Hand-build a DAG with the low-level API ----
  sim::TaskDag dag;
  const sim::NodeId preamble = dag.add_node(30000.0, /*mem_intensity=*/0.1);
  dag.set_root(preamble);
  // Wide middle: 64 independent tasks via the parallel-for builder.
  const sim::DagSpan wide = sim::emit_parallel_for(dag, 64, 900.0, 0.4);
  dag.set_continuation(preamble, wide.entry);
  // Narrow tail.
  const sim::DagSpan tail = sim::emit_parallel_for(dag, 4, 5000.0, 0.4);
  dag.set_continuation(wide.exit, tail.entry);
  if (const std::string err = dag.validate(); !err.empty()) {
    std::cerr << "invalid DAG: " << err << "\n";
    return 1;
  }
  std::cout << "custom DAG: " << dag.size() << " tasks, T1 = "
            << dag.total_work() / 1000.0 << " ms, Tinf = "
            << dag.critical_path() / 1000.0 << " ms, parallelism = "
            << dag.total_work() / dag.critical_path() << "\n\n";

  // ---- 2. Co-run it with a Table-2 profile under each mode ----
  const apps::SimAppProfile heat = apps::make_sim_profile("Heat");
  harness::Table table({"mode", "custom (ms/run)", "Heat (ms/run)",
                        "custom sleeps", "custom claims"});
  for (SchedMode mode : {SchedMode::kAbp, SchedMode::kEp, SchedMode::kDws}) {
    sim::SimParams params;  // the paper's 16-core machine
    sim::SimProgramSpec mine;
    mine.name = "custom";
    mine.mode = mode;
    mine.dag = &dag;
    mine.target_runs = runs;
    mine.default_mem_intensity = 0.3;
    sim::SimProgramSpec other;
    other.name = "Heat";
    other.mode = mode;
    other.dag = &heat.dag;
    other.target_runs = runs;
    other.default_mem_intensity = heat.mem_intensity;

    sim::SimEngine engine(params, {mine, other});
    const sim::SimResult r = engine.run();
    table.add_row(
        {to_string(mode),
         harness::Table::num(r.program("custom").mean_run_time_us / 1000.0, 2),
         harness::Table::num(r.program("Heat").mean_run_time_us / 1000.0, 2),
         std::to_string(r.program("custom").sleeps),
         std::to_string(r.program("custom").cores_claimed)});
  }
  table.print(std::cout);
  std::cout << "\nDuring the custom program's serial preamble its workers"
               " sleep and release their cores; Heat borrows them, and under"
               " DWS the coordinator takes them back for the wide phase —"
               " compare the mode rows above.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

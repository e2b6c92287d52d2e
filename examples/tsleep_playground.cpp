// Interactive-ish playground for the T_SLEEP threshold (§4.3): build a
// bursty workload, co-run two copies under DWS on the simulated machine,
// and print how the sleep/wake economy changes across thresholds —
// including the two failure regimes the paper describes (churn at tiny
// T_SLEEP, wasted cores at huge T_SLEEP).
//
//   $ ./tsleep_playground [--tsleep=0,1,2,4,8,16,64,256]
//                         [--burst-us=15000] [--wide-tasks=48]
#include <iostream>

#include "harness/report.hpp"
#include "sim/engine.hpp"
#include "sim/workload.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"burst-us", "tsleep", "wide-tasks"});
  const auto sweep = args.get_int_list("tsleep", {0, 1, 2, 4, 8, 16, 64, 256});
  const double burst_us = args.get_double("burst-us", 15000.0);
  const auto wide = static_cast<std::uint32_t>(args.get_int("wide-tasks", 48));

  // Alternating narrow/wide phases: the workload whose demand swings are
  // exactly what T_SLEEP arbitrates.
  sim::TaskDag dag;
  sim::DagSpan prev{};
  for (int phase = 0; phase < 6; ++phase) {
    sim::DagSpan s = (phase % 2 == 0)
                         ? sim::emit_parallel_for(dag, 1, burst_us, 0.2)
                         : sim::emit_parallel_for(dag, wide, 800.0, 0.2);
    if (phase == 0) {
      dag.set_root(s.entry);
    } else {
      dag.set_continuation(prev.exit, s.entry);
    }
    prev = s;
  }
  if (const std::string err = dag.validate(); !err.empty()) {
    std::cerr << "bad DAG: " << err << "\n";
    return 1;
  }

  std::cout << "=== T_SLEEP playground: two copies of an alternating"
            << " narrow/wide program under DWS (16 simulated cores) ===\n\n";
  harness::Table table({"T_SLEEP", "mean ms/run", "sleeps", "wakes",
                        "claims", "reclaims", "evictions",
                        "steal overhead (ms)"});
  for (long t : sweep) {
    sim::SimParams params;
    params.t_sleep = static_cast<int>(t);
    sim::SimProgramSpec a;
    a.name = "a";
    a.mode = SchedMode::kDws;
    a.dag = &dag;
    a.target_runs = 3;
    a.default_mem_intensity = 0.2;
    // The co-runner is continuously busy, so cores released during a's
    // narrow bursts are actually usable — lending only pays when the
    // partner's demand is complementary, not in lockstep.
    static const sim::TaskDag steady =
        sim::make_iterative_phases(40, 128, 400.0, 0.2, 1.0);
    sim::SimProgramSpec b = a;
    b.name = "b";
    b.dag = &steady;
    sim::SimEngine engine(params, {a, b});
    const sim::SimResult r = engine.run();
    double mean = 0.0;
    std::uint64_t sleeps = 0, wakes = 0, claims = 0, reclaims = 0, evict = 0;
    double steal_ms = 0.0;
    for (const auto& p : r.programs) {
      mean += p.mean_run_time_us / 2000.0;  // two programs, us->ms
      sleeps += p.sleeps;
      wakes += p.wakes;
      claims += p.cores_claimed;
      reclaims += p.cores_reclaimed;
      evict += p.evictions;
      steal_ms += p.steal_overhead_us / 1000.0;
    }
    table.add_row({std::to_string(t), harness::Table::num(mean, 2),
                   std::to_string(sleeps), std::to_string(wakes),
                   std::to_string(claims), std::to_string(reclaims),
                   std::to_string(evict),
                   harness::Table::num(steal_ms, 1)});
  }
  table.print(std::cout);
  std::cout << "\nReading the columns (§4.3): tiny T_SLEEP => sleep/wake"
            << " churn (large sleeps+wakes); huge T_SLEEP => cores burn in"
            << " failed steals instead of being lent (steal overhead"
            << " grows, claims shrink).\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

// Tests for the paper's asymmetric-machine extension (§4.4 / §6),
// implemented in the simulator: per-core speeds and placement.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace dws::sim {
namespace {

SimParams machine(unsigned cores, unsigned sockets = 1) {
  SimParams p;
  p.num_cores = cores;
  p.num_sockets = sockets;
  return p;
}

SimProgramSpec spec(const std::string& name, SchedMode mode,
                    const TaskDag* dag, unsigned runs = 1, double mem = 0.0) {
  SimProgramSpec s;
  s.name = name;
  s.mode = mode;
  s.dag = dag;
  s.target_runs = runs;
  s.default_mem_intensity = mem;
  return s;
}

// ---------------- asymmetric cores ----------------

TEST(AsymmetricCores, FasterCoresFinishSerialWorkSooner) {
  const TaskDag chain = make_serial_chain(50, 1000.0, 0.0);
  SimParams slow = machine(1);
  slow.core_speeds = {0.5};
  SimParams fast = machine(1);
  fast.core_speeds = {2.0};
  const double t_slow =
      simulate_solo(slow, spec("c", SchedMode::kClassic, &chain))
          .programs[0]
          .mean_run_time_us;
  const double t_fast =
      simulate_solo(fast, spec("c", SchedMode::kClassic, &chain))
          .programs[0]
          .mean_run_time_us;
  // 4x speed ratio => ~4x wall ratio (op latencies are speed-independent
  // but negligible here).
  EXPECT_NEAR(t_slow / t_fast, 4.0, 0.2);
}

TEST(AsymmetricCores, DefaultSpeedIsOne) {
  const TaskDag chain = make_serial_chain(20, 500.0, 0.0);
  SimParams explicit_one = machine(2);
  explicit_one.core_speeds = {1.0, 1.0};
  const double a =
      simulate_solo(machine(2), spec("c", SchedMode::kClassic, &chain))
          .programs[0]
          .mean_run_time_us;
  const double b =
      simulate_solo(explicit_one, spec("c", SchedMode::kClassic, &chain))
          .programs[0]
          .mean_run_time_us;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(AsymmetricCores, NonPositiveSpeedIsRejected) {
  const TaskDag chain = make_serial_chain(2, 1.0, 0.0);
  SimParams bad = machine(2);
  bad.core_speeds = {1.0, 0.0};
  EXPECT_THROW(SimEngine(bad, {spec("c", SchedMode::kClassic, &chain)}),
               std::invalid_argument);
}

TEST(AsymmetricCores, PlacementOnFastBlockBeatsSlowBlock) {
  // §4.4's sketch: compute-bound programs should take the fast cores.
  // 4 fast (1.5x) + 4 slow (0.6x) cores; under EP the first-registered
  // program homes the first block. Registering the compute-heavy program
  // first (fast block) must beat registering it second (slow block).
  const TaskDag compute = make_fork_join_tree(7, 2, 400.0, 1.0, 1.0, 0.0);
  const TaskDag light = make_iterative_phases(10, 16, 100.0, 0.2, 1.0);
  SimParams p = machine(8, 2);
  p.core_speeds = {1.5, 1.5, 1.5, 1.5, 0.6, 0.6, 0.6, 0.6};

  SimEngine good(p, {spec("compute", SchedMode::kEp, &compute, 2),
                     spec("light", SchedMode::kEp, &light, 2)});
  const double t_good = good.run().program("compute").mean_run_time_us;

  SimEngine bad(p, {spec("light", SchedMode::kEp, &light, 2),
                    spec("compute", SchedMode::kEp, &compute, 2)});
  const double t_bad = bad.run().program("compute").mean_run_time_us;

  EXPECT_LT(t_good, t_bad * 0.55)
      << "fast-block placement should be ~2.5x faster for the compute "
         "program";
}

TEST(AsymmetricCores, DwsStillExchangesCores) {
  // DWS on an asymmetric machine keeps working: the busy program borrows
  // the idle program's cores regardless of their speed.
  const TaskDag tiny = make_serial_chain(3, 100.0, 0.0);
  const TaskDag heavy = make_fork_join_tree(7, 2, 800.0, 1.0, 1.0, 0.0);
  SimParams p = machine(8);
  p.core_speeds = {1.5, 1.5, 1.5, 1.5, 0.6, 0.6, 0.6, 0.6};
  SimEngine e(p, {spec("tiny", SchedMode::kDws, &tiny, 1),
                  spec("heavy", SchedMode::kDws, &heavy, 2)});
  const SimResult r = e.run();
  EXPECT_GT(r.program("heavy").cores_claimed, 0u);
}

}  // namespace
}  // namespace dws::sim

// Property sweep over the simulator: for every (mode × machine width ×
// program count × workload shape) combination, a set of invariants must
// hold — completion, work conservation, busy-time bounds, table
// consistency, and bitwise determinism.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace dws::sim {
namespace {

TaskDag make_shape(int shape) {
  switch (shape) {
    case 0: return make_fork_join_tree(5, 2, 150.0, 1.0, 1.0, 0.3);
    case 1: return make_iterative_phases(8, 32, 60.0, 0.9, 1.0);
    case 2: return make_decreasing_chains(16, 24, 1, 2, 75.0, 0.4, 2.0);
    default: return make_irregular_tree(11, 400, 3, 30.0, 300.0, 0.2);
  }
}

const char* shape_name(int shape) {
  switch (shape) {
    case 0: return "Tree";
    case 1: return "Phases";
    case 2: return "Chains";
    default: return "Irregular";
  }
}

using Combo = std::tuple<SchedMode, unsigned, unsigned, int>;

class SimProperty : public ::testing::TestWithParam<Combo> {};

TEST_P(SimProperty, InvariantsHold) {
  const auto [mode, cores, programs, shape] = GetParam();
  if (mode_space_shares(mode) && programs > cores) {
    // EP rejects homeless programs outright; DWS admits them but makes
    // no progress guarantee (constraint 3 forbids preempting non-owned
    // cores) — starvation is legitimate, so the completion invariants
    // do not apply. See FailureInjection.ManyProgramsOnFewCores.
    GTEST_SKIP() << "space-sharing requires a home core per program";
  }
  const TaskDag dag = make_shape(shape);

  SimParams params;
  params.num_cores = cores;
  params.num_sockets = cores >= 8 ? 2 : 1;

  std::vector<SimProgramSpec> specs;
  for (unsigned i = 0; i < programs; ++i) {
    SimProgramSpec s;
    s.name = "p" + std::to_string(i);
    s.mode = mode;
    s.dag = &dag;
    s.target_runs = 2;
    s.default_mem_intensity = 0.3;
    specs.push_back(s);
  }

  SimEngine engine(params, specs);
  const SimResult r = engine.run();

  // 1. Completion: no time limit, every program met its target.
  ASSERT_FALSE(r.hit_time_limit);
  for (const auto& p : r.programs) {
    EXPECT_GE(p.run_times_us.size(), 2u) << p.name;
    EXPECT_GE(p.tasks_executed, dag.size() * 2) << p.name;
    // 2. Work conservation: executed wall time covers at least the DAG
    //    work for the completed runs (cache penalties only add).
    EXPECT_GE(p.exec_time_us + 1e-6,
              dag.total_work() * 2)
        << p.name;
    // 3. Run times are positive and at least the critical path.
    for (double t : p.run_times_us) {
      EXPECT_GE(t, dag.critical_path() * 0.999) << p.name;
    }
    // 4. Stats sanity: wakes never exceed sleeps (a worker must sleep
    //    before it can be woken); steals <= steal attempts implied by
    //    failed+steals.
    EXPECT_LE(p.wakes, p.sleeps) << p.name;
  }

  // 5. Per-core occupancy bounds.
  ASSERT_EQ(r.core_busy_us.size(), cores);
  for (unsigned c = 0; c < cores; ++c) {
    EXPECT_LE(r.core_exec_us[c], r.core_busy_us[c] + 1e-9);
    EXPECT_LE(r.core_busy_us[c], r.total_time_us + 1e-9);
  }

  // 6. Total productive time across cores equals the sum of programs'
  //    exec time.
  double core_exec = 0.0, prog_exec = 0.0;
  for (double e : r.core_exec_us) core_exec += e;
  for (const auto& p : r.programs) prog_exec += p.exec_time_us;
  EXPECT_NEAR(core_exec, prog_exec, 1e-6 * (core_exec + 1.0));
}

TEST_P(SimProperty, BitwiseDeterministicReplay) {
  const auto [mode, cores, programs, shape] = GetParam();
  if (mode_space_shares(mode) && programs > cores) {
    // EP rejects homeless programs outright; DWS admits them but makes
    // no progress guarantee (constraint 3 forbids preempting non-owned
    // cores) — starvation is legitimate, so the completion invariants
    // do not apply. See FailureInjection.ManyProgramsOnFewCores.
    GTEST_SKIP() << "space-sharing requires a home core per program";
  }
  const TaskDag dag = make_shape(shape);
  SimParams params;
  params.num_cores = cores;
  params.num_sockets = cores >= 8 ? 2 : 1;

  auto once = [&] {
    std::vector<SimProgramSpec> specs;
    for (unsigned i = 0; i < programs; ++i) {
      SimProgramSpec s;
      s.name = "p" + std::to_string(i);
      s.mode = mode;
      s.dag = &dag;
      s.target_runs = 2;
      specs.push_back(s);
    }
    SimEngine engine(params, specs);
    return engine.run();
  };
  const SimResult a = once();
  const SimResult b = once();
  ASSERT_EQ(a.total_time_us, b.total_time_us);
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    EXPECT_EQ(a.programs[i].run_times_us, b.programs[i].run_times_us);
    EXPECT_EQ(a.programs[i].steals, b.programs[i].steals);
    EXPECT_EQ(a.programs[i].failed_steals, b.programs[i].failed_steals);
    EXPECT_EQ(a.programs[i].sleeps, b.programs[i].sleeps);
    EXPECT_EQ(a.programs[i].cores_claimed, b.programs[i].cores_claimed);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SimProperty,
    ::testing::Combine(
        ::testing::ValuesIn(kAllModes),
        ::testing::Values(2u, 4u, 16u),   // machine width
        ::testing::Values(1u, 2u, 3u),    // co-running programs
        ::testing::Values(0, 1, 2, 3)),   // workload shape
    [](const auto& info) {
      std::string s = std::string(to_string(std::get<0>(info.param))) + "_k" +
                      std::to_string(std::get<1>(info.param)) + "_m" +
                      std::to_string(std::get<2>(info.param)) + "_" +
                      shape_name(std::get<3>(info.param));
      for (auto& ch : s) {
        if (ch == '-') ch = '_';
      }
      return s;
    });

// Mixed-mode co-running: programs with different schedulers sharing one
// machine must still complete (DWS + ABP is the realistic migration
// scenario: one program upgraded to DWS, the other not).
TEST(SimMixedModes, DwsAndAbpCoexist) {
  const TaskDag dag = make_fork_join_tree(6, 2, 150.0, 1.0, 1.0, 0.3);
  SimParams params;
  params.num_cores = 8;
  params.num_sockets = 1;
  SimProgramSpec a;
  a.name = "dws";
  a.mode = SchedMode::kDws;
  a.dag = &dag;
  a.target_runs = 2;
  SimProgramSpec b = a;
  b.name = "abp";
  b.mode = SchedMode::kAbp;
  SimEngine engine(params, {a, b});
  const SimResult r = engine.run();
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_GE(r.program("dws").run_times_us.size(), 2u);
  EXPECT_GE(r.program("abp").run_times_us.size(), 2u);
}

}  // namespace
}  // namespace dws::sim

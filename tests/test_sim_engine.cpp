// Tests for the discrete-event simulator: determinism, work conservation,
// parallel speedup, OS time-sharing semantics, mode-specific behaviour,
// and the cache model.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace dws::sim {
namespace {

SimParams small_machine(unsigned cores = 4, unsigned sockets = 1) {
  SimParams p;
  p.num_cores = cores;
  p.num_sockets = sockets;
  return p;
}

SimProgramSpec spec(const std::string& name, SchedMode mode,
                    const TaskDag* dag, unsigned runs = 1,
                    double mem = 0.0) {
  SimProgramSpec s;
  s.name = name;
  s.mode = mode;
  s.dag = dag;
  s.target_runs = runs;
  s.default_mem_intensity = mem;
  return s;
}

TEST(SimEngine, SoloSerialChainTakesTotalWorkPlusOverheads) {
  const TaskDag dag = make_serial_chain(100, 50.0, 0.0);
  const SimResult r =
      simulate_solo(small_machine(4), spec("chain", SchedMode::kClassic, &dag));
  ASSERT_EQ(r.programs.size(), 1u);
  const auto& p = r.programs[0];
  EXPECT_EQ(p.tasks_executed, 100u);
  // Serial chain: wall time >= total work; overheads (pops) are small.
  EXPECT_GE(p.mean_run_time_us, 5000.0);
  EXPECT_LT(p.mean_run_time_us, 5000.0 * 1.2);
}

TEST(SimEngine, IsBitwiseDeterministic) {
  const TaskDag dag = make_fork_join_tree(6, 2, 200.0, 1.0, 1.0, 0.5);
  SimParams params = small_machine(8, 2);
  auto once = [&] {
    SimEngine e(params, {spec("a", SchedMode::kDws, &dag, 3, 0.5),
                         spec("b", SchedMode::kDws, &dag, 3, 0.5)});
    return e.run();
  };
  const SimResult r1 = once();
  const SimResult r2 = once();
  ASSERT_EQ(r1.programs.size(), r2.programs.size());
  EXPECT_EQ(r1.total_time_us, r2.total_time_us);
  for (std::size_t i = 0; i < r1.programs.size(); ++i) {
    EXPECT_EQ(r1.programs[i].run_times_us, r2.programs[i].run_times_us);
    EXPECT_EQ(r1.programs[i].steals, r2.programs[i].steals);
    EXPECT_EQ(r1.programs[i].sleeps, r2.programs[i].sleeps);
  }
}

TEST(SimEngine, DifferentSeedsChangeSchedulesNotResultsStructure) {
  const TaskDag dag = make_fork_join_tree(5, 2, 100.0, 1.0, 1.0, 0.0);
  SimParams p1 = small_machine(4);
  SimParams p2 = small_machine(4);
  p2.seed = p1.seed + 1;
  const SimResult r1 = simulate_solo(p1, spec("a", SchedMode::kDws, &dag));
  const SimResult r2 = simulate_solo(p2, spec("a", SchedMode::kDws, &dag));
  // Same amount of work executed regardless of schedule.
  EXPECT_EQ(r1.programs[0].tasks_executed, r2.programs[0].tasks_executed);
}

class SimEngineAllModes : public ::testing::TestWithParam<SchedMode> {};

TEST_P(SimEngineAllModes, SoloCompletesAllTasks) {
  const TaskDag dag = make_fork_join_tree(6, 2, 100.0, 1.0, 1.0, 0.3);
  const SimResult r =
      simulate_solo(small_machine(4), spec("solo", GetParam(), &dag, 2, 0.3));
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size() * 2);
  EXPECT_FALSE(r.hit_time_limit);
}

TEST_P(SimEngineAllModes, TwoCoRunnersCompleteAllTasks) {
  const TaskDag dag = make_fork_join_tree(5, 2, 150.0, 1.0, 1.0, 0.3);
  SimEngine e(small_machine(4), {spec("a", GetParam(), &dag, 2, 0.3),
                                 spec("b", GetParam(), &dag, 2, 0.3)});
  const SimResult r = e.run();
  EXPECT_FALSE(r.hit_time_limit);
  for (const auto& p : r.programs) {
    EXPECT_GE(p.run_times_us.size(), 2u) << p.name;
    EXPECT_GE(p.tasks_executed, dag.size() * 2) << p.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, SimEngineAllModes,
                         ::testing::Values(SchedMode::kClassic, SchedMode::kAbp,
                                           SchedMode::kEp, SchedMode::kDws,
                                           SchedMode::kDwsNc),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(SimEngine, WideDagGetsNearLinearSpeedupSolo) {
  // 64 leaves x 500us on 8 cores: expect speedup near 8 (within overheads
  // and the final join serialization).
  const TaskDag dag = make_fork_join_tree(6, 2, 500.0, 1.0, 1.0, 0.0);
  const double t1 = dag.total_work();
  const SimResult r =
      simulate_solo(small_machine(8), spec("wide", SchedMode::kClassic, &dag));
  const double t8 = r.programs[0].mean_run_time_us;
  const double speedup = t1 / t8;
  EXPECT_GT(speedup, 5.5) << "t1=" << t1 << " t8=" << t8;
  EXPECT_LE(speedup, 8.01);
}

TEST(SimEngine, SpeedupIsBoundedByCriticalPath) {
  const TaskDag dag = make_iterative_phases(20, 4, 100.0, 0.0, 1.0);
  const SimResult r =
      simulate_solo(small_machine(8), spec("it", SchedMode::kClassic, &dag));
  EXPECT_GE(r.programs[0].mean_run_time_us, dag.critical_path());
}

TEST(SimEngine, RepetitionsRunBackToBack) {
  const TaskDag dag = make_fork_join_tree(4, 2, 100.0, 1.0, 1.0, 0.0);
  const SimResult r = simulate_solo(
      small_machine(4), spec("rep", SchedMode::kDws, &dag, /*runs=*/5));
  const auto& p = r.programs[0];
  ASSERT_GE(p.run_times_us.size(), 5u);
  EXPECT_EQ(p.tasks_executed, dag.size() * p.run_times_us.size());
  EXPECT_GT(p.mean_run_time_us, 0.0);
}

TEST(SimEngine, TwoProgramsTimeShareUnderAbp) {
  // Two identical CPU-bound programs under ABP on 2 cores take roughly
  // twice as long each as solo.
  const TaskDag dag = make_fork_join_tree(5, 2, 300.0, 1.0, 1.0, 0.0);
  const double solo = simulate_solo(small_machine(2),
                                    spec("s", SchedMode::kAbp, &dag))
                          .programs[0]
                          .mean_run_time_us;
  SimEngine e(small_machine(2), {spec("a", SchedMode::kAbp, &dag, 3),
                                 spec("b", SchedMode::kAbp, &dag, 3)});
  const SimResult r = e.run();
  for (const auto& p : r.programs) {
    EXPECT_GT(p.mean_run_time_us, 1.5 * solo) << p.name;
    EXPECT_LT(p.mean_run_time_us, 3.0 * solo) << p.name;
  }
}

TEST(SimEngine, EpProgramsNeverLeaveTheirPartition) {
  const TaskDag dag = make_fork_join_tree(6, 2, 200.0, 1.0, 1.0, 0.0);
  SimEngine e(small_machine(4), {spec("a", SchedMode::kEp, &dag, 2),
                                 spec("b", SchedMode::kEp, &dag, 2)});
  const SimResult r = e.run();
  // EP never sleeps, never exchanges cores.
  for (const auto& p : r.programs) {
    EXPECT_EQ(p.sleeps, 0u);
    EXPECT_EQ(p.cores_claimed, 0u);
    EXPECT_EQ(p.cores_reclaimed, 0u);
    // >= because programs re-run back-to-back (Fig. 3): a partial extra
    // run may be in flight when the simulation ends.
    EXPECT_GE(p.tasks_executed, dag.size() * 2);
  }
}

TEST(SimEngine, DwsWorkersSleepAndCoordinatorWakes) {
  // A narrow phase (width 1) followed by a wide phase: workers must sleep
  // during the narrow part and be woken for the wide part.
  TaskDag dag;
  DagSpan narrow = emit_parallel_for(dag, 1, 20000.0, 0.0);
  DagSpan wide = emit_parallel_for(dag, 64, 500.0, 0.0);
  dag.set_continuation(narrow.exit, wide.entry);
  dag.set_root(narrow.entry);
  ASSERT_EQ(dag.validate(), "");

  const SimResult r =
      simulate_solo(small_machine(8), spec("nw", SchedMode::kDws, &dag));
  const auto& p = r.programs[0];
  EXPECT_GT(p.sleeps, 0u) << "workers never slept in the narrow phase";
  EXPECT_GT(p.wakes, 0u) << "coordinator never woke workers for the wide phase";
  EXPECT_EQ(p.tasks_executed, dag.size());
}

TEST(SimEngine, DwsBusyProgramBorrowsIdleProgramsCores) {
  // Program a: tiny serial work then done. Program b: wide and heavy.
  // Under DWS, b must claim a's released home cores.
  const TaskDag tiny = make_serial_chain(3, 100.0, 0.0);
  const TaskDag heavy = make_fork_join_tree(7, 2, 800.0, 1.0, 1.0, 0.0);
  SimEngine e(small_machine(8), {spec("tiny", SchedMode::kDws, &tiny, 1),
                                 spec("heavy", SchedMode::kDws, &heavy, 2)});
  const SimResult r = e.run();
  EXPECT_GT(r.program("heavy").cores_claimed, 0u);
}

TEST(SimEngine, DwsOwnerReclaimsOnDemandReturn) {
  // a alternates narrow and wide phases; b is continuously heavy. a's
  // coordinator must reclaim its home cores from b when its wide phases
  // arrive (N_f = 0 while b is saturating).
  TaskDag alternating;
  DagSpan prev{};
  for (int phase = 0; phase < 6; ++phase) {
    DagSpan s = (phase % 2 == 0)
                    ? emit_parallel_for(alternating, 1, 15000.0, 0.0)
                    : emit_parallel_for(alternating, 48, 800.0, 0.0);
    if (phase == 0) {
      alternating.set_root(s.entry);
    } else {
      alternating.set_continuation(prev.exit, s.entry);
    }
    prev = s;
  }
  ASSERT_EQ(alternating.validate(), "");
  const TaskDag heavy = make_fork_join_tree(8, 2, 700.0, 1.0, 1.0, 0.0);

  SimEngine e(small_machine(8),
              {spec("alt", SchedMode::kDws, &alternating, 2),
               spec("heavy", SchedMode::kDws, &heavy, 4)});
  const SimResult r = e.run();
  EXPECT_GT(r.program("alt").cores_reclaimed, 0u)
      << "alternating program never reclaimed its lent home cores";
  EXPECT_GT(r.program("heavy").evictions, 0u)
      << "the borrower was never evicted";
}

TEST(SimEngine, CacheContentionSlowsMemoryBoundCoRunnersUnderAbp) {
  // Two memory-bound programs: ABP time-shares cores (thrashes private
  // caches); DWS keeps them on disjoint cores. DWS must show a smaller
  // cache penalty.
  const TaskDag dag = make_iterative_phases(30, 16, 300.0, 1.0, 1.0);
  SimParams params = small_machine(8, 2);
  auto run_mode = [&](SchedMode mode) {
    SimEngine e(params, {spec("a", mode, &dag, 2, 1.0),
                         spec("b", mode, &dag, 2, 1.0)});
    return e.run();
  };
  const SimResult abp = run_mode(SchedMode::kAbp);
  const SimResult dws = run_mode(SchedMode::kDws);
  const double abp_penalty = abp.programs[0].cache_penalty_us +
                             abp.programs[1].cache_penalty_us;
  const double dws_penalty = dws.programs[0].cache_penalty_us +
                             dws.programs[1].cache_penalty_us;
  EXPECT_LT(dws_penalty, abp_penalty)
      << "space-sharing should reduce cache thrash";
}

TEST(SimEngine, ComputeBoundTasksIgnoreCacheModel) {
  const TaskDag dag = make_fork_join_tree(5, 2, 200.0, 1.0, 1.0, 0.0);
  const SimResult r =
      simulate_solo(small_machine(4), spec("cpu", SchedMode::kDws, &dag, 1, 0.0));
  EXPECT_DOUBLE_EQ(r.programs[0].cache_penalty_us, 0.0);
}

TEST(SimEngine, ExecTimeEqualsWorkPlusCachePenalty) {
  const TaskDag dag = make_iterative_phases(10, 8, 400.0, 0.7, 1.0);
  const SimResult r = simulate_solo(small_machine(4),
                                    spec("m", SchedMode::kDws, &dag, 2, 0.7));
  const auto& p = r.programs[0];
  const double runs = static_cast<double>(p.run_times_us.size());
  EXPECT_NEAR(p.exec_time_us, dag.total_work() * runs + p.cache_penalty_us,
              1e-6 * p.exec_time_us + 1.0);
}

TEST(SimEngine, InvalidInputsThrow) {
  const TaskDag dag = make_serial_chain(2, 1.0, 0.0);
  TaskDag bad;  // empty
  EXPECT_THROW(SimEngine(small_machine(2), {spec("x", SchedMode::kDws, &bad)}),
               std::invalid_argument);
  SimParams zero = small_machine(2);
  EXPECT_THROW(SimEngine(zero, {}), std::invalid_argument);
  // EP program with no home core (more programs than cores).
  std::vector<SimProgramSpec> four;
  for (int i = 0; i < 4; ++i) {
    four.push_back(spec("p" + std::to_string(i), SchedMode::kEp, &dag));
  }
  EXPECT_THROW(SimEngine(small_machine(2), four), std::invalid_argument);
}

TEST(SimEngine, ZeroSocketsThrow) {
  // The cache model splits cores across sockets; zero sockets used to
  // divide by zero mid-run instead of being rejected up front.
  const TaskDag dag = make_serial_chain(2, 1.0, 0.0);
  EXPECT_THROW(
      SimEngine(small_machine(2, 0), {spec("x", SchedMode::kDws, &dag)}),
      std::invalid_argument);
}

TEST(SimEngine, TimeLimitIsReported) {
  const TaskDag dag = make_serial_chain(1000, 1000.0, 0.0);
  SimParams params = small_machine(2);
  params.max_sim_time_us = 10.0;  // absurdly small
  SimEngine e(params, {spec("long", SchedMode::kDws, &dag)});
  const SimResult r = e.run();
  EXPECT_TRUE(r.hit_time_limit);
}

TEST(SimEngine, SingleCoreMachineStillCompletes) {
  const TaskDag dag = make_fork_join_tree(4, 2, 50.0, 1.0, 1.0, 0.2);
  for (SchedMode mode : {SchedMode::kClassic, SchedMode::kAbp, SchedMode::kDws,
                         SchedMode::kDwsNc}) {
    const SimResult r =
        simulate_solo(small_machine(1), spec("solo1", mode, &dag));
    EXPECT_EQ(r.programs[0].tasks_executed, dag.size()) << to_string(mode);
  }
}

TEST(SimEngine, PerTierStealsPartitionTotalSteals) {
  const TaskDag dag = make_fork_join_tree(8, 2, 100.0, 1.0, 1.0, 0.2);
  const SimResult r = simulate_solo(small_machine(8, 2),
                                    spec("p", SchedMode::kClassic, &dag, 4));
  const auto& p = r.programs[0];
  std::uint64_t sum = 0;
  for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
    sum += p.steals_by_tier[t];
  }
  EXPECT_EQ(sum, p.steals);
  EXPECT_GT(p.steals, 0u);
}

TEST(SimEngine, TieredSweepPrefersNearVictims) {
  // Plenty of work on both sockets: a tiered thief should essentially
  // always find a same-socket victim.
  const TaskDag dag = make_fork_join_tree(9, 2, 80.0, 1.0, 1.0, 0.0);
  const SimResult r = simulate_solo(small_machine(8, 2),
                                    spec("p", SchedMode::kClassic, &dag, 4));
  const auto& p = r.programs[0];
  const auto near = p.steals_by_tier[static_cast<int>(DistanceTier::kNear)];
  const auto far = p.steals_by_tier[static_cast<int>(DistanceTier::kFar)];
  ASSERT_GT(p.steals, 0u);
  EXPECT_GT(near, far) << "near-first ordering did not dominate";
}

TEST(SimEngine, TierMigrationCostIsChargedAndSlowsRemoteSteals) {
  const TaskDag dag = make_fork_join_tree(8, 2, 100.0, 1.0, 1.0, 0.0);
  // The first run's root starts on core 0, so the socket-1 thieves find
  // their own socket empty and must steal FAR to get going.
  const SimParams base = small_machine(8, 2);
  SimParams numa = base;
  numa.steal_tier_migration_us[static_cast<int>(DistanceTier::kFar)] = 40.0;
  numa.steal_tier_migration_us[static_cast<int>(DistanceTier::kVeryFar)] =
      80.0;
  const SimResult free_r =
      simulate_solo(base, spec("p", SchedMode::kClassic, &dag, 4));
  const SimResult numa_r =
      simulate_solo(numa, spec("p", SchedMode::kClassic, &dag, 4));
  EXPECT_EQ(free_r.programs[0].migration_us, 0.0);
  const auto& p = numa_r.programs[0];
  const auto far = p.steals_by_tier[static_cast<int>(DistanceTier::kFar)];
  ASSERT_GT(far, 0u) << "socket-1 thieves never stole cross-socket";
  // Every FAR steal was charged exactly its tier cost.
  EXPECT_NEAR(p.migration_us, 40.0 * static_cast<double>(far), 1e-6);
  // Same work, same seeds, extra transfer latency: the NUMA run cannot be
  // faster.
  EXPECT_GE(numa_r.total_time_us, free_r.total_time_us * (1.0 - 1e-9));
}

TEST(SimEngine, CoreBusyTimeNeverExceedsWallTime) {
  const TaskDag dag = make_fork_join_tree(6, 2, 300.0, 1.0, 1.0, 0.4);
  SimEngine e(small_machine(4), {spec("a", SchedMode::kAbp, &dag, 2, 0.4),
                                 spec("b", SchedMode::kAbp, &dag, 2, 0.4)});
  const SimResult r = e.run();
  for (double busy : r.core_busy_us) {
    EXPECT_LE(busy, r.total_time_us * (1.0 + 1e-9));
  }
  for (std::size_t c = 0; c < r.core_busy_us.size(); ++c) {
    EXPECT_LE(r.core_exec_us[c], r.core_busy_us[c] + 1e-9);
  }
}

}  // namespace
}  // namespace dws::sim

// Tests for the paper's discussed extensions (§4.4 / §6), implemented in
// the simulator: the BWS baseline (directed yield), asymmetric multi-core
// machines (per-core speeds + placement), and the work-sharing variant.
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

// ---------------- BWS ----------------

TEST(Bws, SoloCompletesAllTasks) {
  const TaskDag dag = make_fork_join_tree(6, 2, 100.0, 1.0, 1.0, 0.2);
  const SimResult r =
      simulate_solo(machine(4), spec("bws", SchedMode::kBws, &dag, 2, 0.2));
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size() * 2);
  EXPECT_EQ(r.programs[0].sleeps, 0u);  // BWS never sleeps
}

TEST(Bws, NeverUsesTheCoreTable) {
  const TaskDag dag = make_fork_join_tree(5, 2, 100.0, 1.0, 1.0, 0.0);
  SimEngine e(machine(4), {spec("a", SchedMode::kBws, &dag, 2),
                           spec("b", SchedMode::kBws, &dag, 2)});
  const SimResult r = e.run();
  for (const auto& p : r.programs) {
    EXPECT_EQ(p.cores_claimed, 0u);
    EXPECT_EQ(p.cores_reclaimed, 0u);
    EXPECT_EQ(p.coordinator_ticks, 0u);
  }
}

TEST(Bws, BalancesBetterThanAbpOnAsymmetricMix) {
  // The BWS claim (EuroSys'12): directed yields keep time slices inside
  // the program that can use them, balancing co-runners better than ABP.
  // Pair a wide scalable program with a narrow one and compare the
  // worst-case normalized slot.
  const TaskDag wide = make_fork_join_tree(8, 2, 200.0, 1.0, 1.0, 0.0);
  const TaskDag narrow = make_serial_chain(60, 2000.0, 0.0);

  auto run_mode = [&](SchedMode mode) {
    SimEngine e(machine(8),
                {spec("wide", mode, &wide, 3), spec("narrow", mode, &narrow, 3)});
    return e.run();
  };
  const double solo_narrow =
      simulate_solo(machine(8), spec("n", SchedMode::kAbp, &narrow))
          .programs[0]
          .mean_run_time_us;
  const SimResult abp = run_mode(SchedMode::kAbp);
  const SimResult bws = run_mode(SchedMode::kBws);
  const double narrow_abp =
      abp.program("narrow").mean_run_time_us / solo_narrow;
  const double narrow_bws =
      bws.program("narrow").mean_run_time_us / solo_narrow;
  // The narrow (serial) program's only thread must not starve under BWS
  // worse than under ABP.
  EXPECT_LE(narrow_bws, narrow_abp * 1.1)
      << "BWS starved the narrow program more than ABP";
}

TEST(Bws, ModeRoundTripsAndTraits) {
  SchedMode out{};
  ASSERT_TRUE(parse_mode("BWS", out));
  EXPECT_EQ(out, SchedMode::kBws);
  EXPECT_FALSE(mode_sleeps(SchedMode::kBws));
  EXPECT_FALSE(mode_space_shares(SchedMode::kBws));
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

// ---------------- work-sharing ----------------

TEST(WorkSharing, CompletesAllTasks) {
  const TaskDag dag = make_fork_join_tree(6, 2, 100.0, 1.0, 1.0, 0.2);
  SimProgramSpec s = spec("ws", SchedMode::kDws, &dag, 3, 0.2);
  s.work_sharing = true;
  const SimResult r = simulate_solo(machine(4), s);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size() * 3);
}

TEST(WorkSharing, NoStealsEverHappen) {
  const TaskDag dag = make_fork_join_tree(6, 2, 100.0, 1.0, 1.0, 0.0);
  SimProgramSpec s = spec("ws", SchedMode::kAbp, &dag, 2);
  s.work_sharing = true;
  const SimResult r = simulate_solo(machine(4), s);
  EXPECT_EQ(r.programs[0].steals, 0u);  // central queue pops are not steals
}

TEST(WorkSharing, DwsSleepWakeStillWorks) {
  // §4.4's claim: the DWS mechanism transfers to work-sharing. A narrow
  // phase must still put workers to sleep; a wide phase must wake them.
  TaskDag dag;
  DagSpan narrow = emit_parallel_for(dag, 1, 20000.0, 0.0);
  DagSpan wide = emit_parallel_for(dag, 64, 500.0, 0.0);
  dag.set_continuation(narrow.exit, wide.entry);
  dag.set_root(narrow.entry);
  ASSERT_EQ(dag.validate(), "");

  SimProgramSpec s = spec("ws", SchedMode::kDws, &dag, 1, 0.0);
  s.work_sharing = true;
  const SimResult r = simulate_solo(machine(8), s);
  EXPECT_GT(r.programs[0].sleeps, 0u);
  EXPECT_GT(r.programs[0].wakes, 0u);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size());
}

TEST(WorkSharing, CoRunsAgainstAWorkStealingProgram) {
  const TaskDag dag = make_fork_join_tree(6, 2, 150.0, 1.0, 1.0, 0.2);
  SimProgramSpec ws = spec("sharing", SchedMode::kDws, &dag, 2, 0.2);
  ws.work_sharing = true;
  SimProgramSpec st = spec("stealing", SchedMode::kDws, &dag, 2, 0.2);
  SimEngine e(machine(8), {ws, st});
  const SimResult r = e.run();
  EXPECT_GE(r.program("sharing").run_times_us.size(), 2u);
  EXPECT_GE(r.program("stealing").run_times_us.size(), 2u);
  EXPECT_FALSE(r.hit_time_limit);
}

// ---------------- adaptive T_SLEEP ----------------

TEST(AdaptiveTSleep, OffByDefaultMatchesFixed) {
  const TaskDag dag = make_fork_join_tree(5, 2, 100.0, 1.0, 1.0, 0.2);
  SimParams p = machine(4);
  const double fixed =
      simulate_solo(p, spec("f", SchedMode::kDws, &dag, 2, 0.2))
          .programs[0]
          .mean_run_time_us;
  // adaptive defaults to off => identical schedule.
  SimParams q = machine(4);
  q.adaptive_t_sleep = false;
  const double again =
      simulate_solo(q, spec("f", SchedMode::kDws, &dag, 2, 0.2))
          .programs[0]
          .mean_run_time_us;
  EXPECT_DOUBLE_EQ(fixed, again);
}

// Rapidly alternating demand: 16 phases, serial then 32-wide.
TaskDag bursty_dag() {
  TaskDag dag;
  DagSpan prev{};
  for (int phase = 0; phase < 16; ++phase) {
    DagSpan s = (phase % 2 == 0) ? emit_parallel_for(dag, 1, 2000.0, 0.0)
                                 : emit_parallel_for(dag, 32, 200.0, 0.0);
    if (phase == 0) {
      dag.set_root(s.entry);
    } else {
      dag.set_continuation(prev.exit, s.entry);
    }
    prev = s;
  }
  return dag;
}

// Sleeps of two co-running DWS copies of `dag` at base threshold t_sleep.
std::uint64_t corun_sleeps(const TaskDag& dag, int t_sleep, bool adaptive) {
  SimParams p = machine(8);
  p.t_sleep = t_sleep;
  p.adaptive_t_sleep = adaptive;
  SimEngine e(p, {spec("a", SchedMode::kDws, &dag, 3),
                  spec("b", SchedMode::kDws, &dag, 3)});
  const SimResult r = e.run();
  return r.programs[0].sleeps + r.programs[1].sleeps;
}

TEST(AdaptiveTSleep, ReducesChurnOnBurstyWorkload) {
  // Rapidly alternating demand with a tiny base threshold: the adaptive
  // controller must cut the sleep/wake churn substantially.
  const TaskDag dag = bursty_dag();
  ASSERT_EQ(dag.validate(), "");
  const auto fixed_sleeps = corun_sleeps(dag, 2, false);
  const auto adaptive_sleeps = corun_sleeps(dag, 2, true);
  // The controller must strictly reduce churn here; on harsher workloads
  // (see bench_adaptive_tsleep) the reduction is ~7x.
  EXPECT_LT(static_cast<double>(adaptive_sleeps),
            0.8 * static_cast<double>(fixed_sleeps))
      << "adaptive threshold failed to suppress premature-sleep churn";
}

TEST(AdaptiveTSleep, EscalatesFromAZeroBase) {
  // Regression: the simulator capped escalation at 64 x base, which is 0
  // for T_SLEEP = 0, so the controller could never move and an adaptive
  // run slept exactly as often as a fixed one. The shared cap is
  // 64 x max(base, 1), as in the runtime.
  const TaskDag dag = bursty_dag();
  EXPECT_LT(corun_sleeps(dag, 0, true), corun_sleeps(dag, 0, false));
}

TEST(AdaptiveTSleep, StillSleepsOnGenuineIdleness) {
  // A long narrow section must still release cores under the adaptive
  // controller (it raises the threshold only on *premature* sleeps).
  TaskDag dag;
  DagSpan narrow = emit_parallel_for(dag, 1, 50000.0, 0.0);
  DagSpan wide = emit_parallel_for(dag, 32, 400.0, 0.0);
  dag.set_continuation(narrow.exit, wide.entry);
  dag.set_root(narrow.entry);
  ASSERT_EQ(dag.validate(), "");
  SimParams p = machine(8);
  p.adaptive_t_sleep = true;
  const SimResult r = simulate_solo(p, spec("n", SchedMode::kDws, &dag));
  EXPECT_GT(r.programs[0].sleeps, 0u);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size());
}

TEST(WorkSharing, CentralQueueIsFifo) {
  // FIFO semantics show up as breadth-first execution: in a two-level
  // tree the first-spawned subtree's tasks run before later spawns, so
  // completion order differs from the work-stealing LIFO case. We verify
  // indirectly: both run to completion with identical task counts.
  const TaskDag dag = make_fork_join_tree(4, 4, 50.0, 1.0, 1.0, 0.0);
  SimProgramSpec ws = spec("f", SchedMode::kClassic, &dag, 1);
  ws.work_sharing = true;
  const SimResult r = simulate_solo(machine(2), ws);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size());
}

}  // namespace
}  // namespace dws::sim

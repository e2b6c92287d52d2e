// Failure injection / hostile-parameter tests: the simulator must either
// behave sanely or fail loudly (never hang, never corrupt) under extreme
// configurations, and the timeline sampler must work.
#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/workload.hpp"

namespace dws::sim {
namespace {

SimProgramSpec spec(const std::string& name, SchedMode mode,
                    const TaskDag* dag, unsigned runs = 1) {
  SimProgramSpec s;
  s.name = name;
  s.mode = mode;
  s.dag = dag;
  s.target_runs = runs;
  return s;
}

TEST(FailureInjection, TinyQuantumStillCompletes) {
  const TaskDag dag = make_fork_join_tree(5, 2, 100.0, 1.0, 1.0, 0.2);
  SimParams p;
  p.num_cores = 4;
  p.num_sockets = 1;
  p.quantum_us = 5.0;  // pathological context-switch storm
  SimEngine e(p, {spec("a", SchedMode::kAbp, &dag),
                  spec("b", SchedMode::kAbp, &dag)});
  const SimResult r = e.run();
  EXPECT_FALSE(r.hit_time_limit);
}

TEST(FailureInjection, HugeQuantumStillCompletes) {
  const TaskDag dag = make_fork_join_tree(5, 2, 100.0, 1.0, 1.0, 0.2);
  SimParams p;
  p.num_cores = 4;
  p.num_sockets = 1;
  p.quantum_us = 1e9;  // effectively FIFO per core
  SimEngine e(p, {spec("a", SchedMode::kAbp, &dag, 2),
                  spec("b", SchedMode::kAbp, &dag, 2)});
  const SimResult r = e.run();
  EXPECT_FALSE(r.hit_time_limit);
}

TEST(FailureInjection, ZeroTSleepChurnStillCompletes) {
  // T_SLEEP = 0: a worker sleeps on its very first failed sweep; the
  // coordinator must keep the program alive regardless.
  const TaskDag dag = make_fork_join_tree(6, 2, 100.0, 1.0, 1.0, 0.0);
  SimParams p;
  p.num_cores = 8;
  p.num_sockets = 1;
  p.t_sleep = 0;
  const SimResult r = simulate_solo(p, spec("churn", SchedMode::kDws, &dag));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size());
  EXPECT_GT(r.programs[0].sleeps, 0u);
}

TEST(FailureInjection, EnormousTSleepNeverSleeps) {
  const TaskDag dag = make_fork_join_tree(5, 2, 100.0, 1.0, 1.0, 0.0);
  SimParams p;
  p.num_cores = 4;
  p.num_sockets = 1;
  p.t_sleep = 1 << 30;
  const SimResult r = simulate_solo(p, spec("spin", SchedMode::kDws, &dag, 2));
  EXPECT_EQ(r.programs[0].sleeps, 0u);
  EXPECT_FALSE(r.hit_time_limit);
}

TEST(FailureInjection, GlacialCoordinatorStillMakesProgress) {
  // Coordinator period far beyond the workload length: sleeping workers
  // may never be woken, yet the program must finish (at least one worker
  // always stays active: the last one holds the work).
  TaskDag dag;
  DagSpan narrow = emit_parallel_for(dag, 1, 5000.0, 0.0);
  DagSpan wide = emit_parallel_for(dag, 32, 200.0, 0.0);
  dag.set_continuation(narrow.exit, wide.entry);
  dag.set_root(narrow.entry);
  ASSERT_EQ(dag.validate(), "");
  SimParams p;
  p.num_cores = 8;
  p.num_sockets = 1;
  p.coordinator_period_us = 1e8;
  const SimResult r = simulate_solo(p, spec("slowco", SchedMode::kDws, &dag));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size());
}

TEST(FailureInjection, ZeroCostOpsDoNotLivelock) {
  const TaskDag dag = make_fork_join_tree(4, 2, 50.0, 1.0, 1.0, 0.0);
  SimParams p;
  p.num_cores = 2;
  p.num_sockets = 1;
  p.pop_cost_us = 0.0;
  p.steal_cost_us = 0.0;
  p.wake_latency_us = 0.0;
  p.steal_backoff_cap_us = 0.0;
  const SimResult r = simulate_solo(p, spec("free", SchedMode::kDws, &dag));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size());
}

TEST(FailureInjection, ZeroWorkTasksComplete) {
  const TaskDag dag = make_fork_join_tree(6, 2, 0.0, 0.0, 0.0, 0.0);
  SimParams p;
  p.num_cores = 4;
  p.num_sockets = 1;
  const SimResult r = simulate_solo(p, spec("zero", SchedMode::kAbp, &dag));
  EXPECT_FALSE(r.hit_time_limit);
  EXPECT_EQ(r.programs[0].tasks_executed, dag.size());
}

TEST(FailureInjection, ExtremeCachePenaltySlowsButCompletes) {
  const TaskDag dag = make_iterative_phases(5, 16, 100.0, 1.0, 1.0);
  SimParams p;
  p.num_cores = 4;
  p.num_sockets = 1;
  p.core_miss_penalty = 50.0;
  p.llc_miss_penalty = 50.0;
  SimEngine e(p, {spec("a", SchedMode::kAbp, &dag),
                  spec("b", SchedMode::kAbp, &dag)});
  const SimResult r = e.run();
  EXPECT_FALSE(r.hit_time_limit);
  for (const auto& prog : r.programs) {
    EXPECT_GT(prog.cache_penalty_us, 0.0);
  }
}

TEST(FailureInjection, ManyProgramsOnFewCores) {
  // 6 DWS programs on 2 cores: four programs own no home cores at all
  // and can only ever use cores the other two release. DWS makes no
  // fairness guarantee for homeless programs (§3.3 constraint 3 is
  // deliberately non-preemptive), so starvation is a legitimate outcome;
  // the requirement here is graceful degradation: bounded termination
  // and a consistent table, never a crash or corruption.
  const TaskDag dag = make_fork_join_tree(4, 2, 80.0, 1.0, 1.0, 0.2);
  SimParams p;
  p.num_cores = 2;
  p.num_sockets = 1;
  p.max_sim_time_us = 2e6;  // bound the experiment at 2 virtual seconds
  std::vector<SimProgramSpec> specs;
  for (int i = 0; i < 6; ++i) {
    specs.push_back(spec("p" + std::to_string(i), SchedMode::kDws, &dag));
  }
  SimEngine e(p, specs);
  const SimResult r = e.run();
  // The two home-owning programs always make progress.
  unsigned progressed = 0;
  for (const auto& prog : r.programs) {
    progressed += !prog.run_times_us.empty();
  }
  EXPECT_GE(progressed, 2u);
}

TEST(FailureInjection, SingleNodeDagEveryMode) {
  TaskDag dag;
  dag.set_root(dag.add_node(42.0));
  for (SchedMode mode : kAllModes) {
    SimParams p;
    p.num_cores = 4;
    p.num_sockets = 1;
    const SimResult r = simulate_solo(p, spec("one", mode, &dag, 3));
    EXPECT_EQ(r.programs[0].tasks_executed, 3u) << to_string(mode);
  }
}

TEST(FailureInjection, TimelineSamplerRecords) {
  const TaskDag dag = make_fork_join_tree(6, 2, 200.0, 1.0, 1.0, 0.0);
  SimParams p;
  p.num_cores = 4;
  p.num_sockets = 1;
  p.timeline_sample_period_us = 500.0;
  SimEngine e(p, {spec("a", SchedMode::kDws, &dag, 2),
                  spec("b", SchedMode::kDws, &dag, 2)});
  const SimResult r = e.run();
  ASSERT_GT(r.timeline.size(), 2u);
  double prev_t = 0.0;
  for (const auto& s : r.timeline) {
    EXPECT_GT(s.t_us, prev_t);
    prev_t = s.t_us;
    ASSERT_EQ(s.active_workers.size(), 2u);
    // Active workers per program never exceed the machine width; free
    // cores never exceed it either.
    EXPECT_LE(s.active_workers[0], 4u);
    EXPECT_LE(s.active_workers[1], 4u);
    EXPECT_LE(s.free_cores, 4u);
  }
}

TEST(FailureInjection, TimelineOffByDefault) {
  const TaskDag dag = make_serial_chain(3, 10.0, 0.0);
  SimParams p;
  p.num_cores = 2;
  p.num_sockets = 1;
  const SimResult r = simulate_solo(p, spec("x", SchedMode::kAbp, &dag));
  EXPECT_TRUE(r.timeline.empty());
}

}  // namespace
}  // namespace dws::sim

// Deterministic discrete-event simulator of m work-stealing programs
// co-running on a k-core machine.
//
// Faithfulness to the paper's system:
//  * every program has one worker per core (m×k simulated workers, §2);
//  * workers run Algorithm 1, driven by the *same* StealPolicy class the
//    real runtime uses, with per-op costs (deque pop, steal attempt);
//  * the OS layer time-shares each core round-robin with a quantum; ABP
//    yield() requeues the caller at the tail of its core's run queue;
//  * DWS coordinators tick every T µs and run the *same* coordinator
//    step (run_coordinator_step) against a real CoreTable;
//  * a two-level cache-warmth model (private per-core + per-socket LLC)
//    slows memory-intensive tasks down when another program's execution
//    has evicted this program's working set (§2.1 drawback 2, §4.1 p-7).
//
// Everything is seeded and event-ordered; two runs with identical inputs
// produce identical outputs bit-for-bit.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/coordinator_policy.hpp"
#include "core/core_table.hpp"
#include "core/steal_policy.hpp"
#include "core/types.hpp"
#include "sim/dag.hpp"
#include "sim/params.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace dws::sim {

/// One simulated work-stealing program.
struct SimProgramSpec {
  std::string name;
  SchedMode mode = SchedMode::kDws;
  const TaskDag* dag = nullptr;  ///< must outlive the engine
  /// The program repeatedly re-runs its DAG (Fig. 3 methodology); the
  /// simulation ends when every program has completed target_runs.
  unsigned target_runs = 1;
  /// mem_intensity applied to DAG nodes that do not specify their own.
  double default_mem_intensity = 0.3;
};

struct ProgramResult {
  std::string name;
  std::vector<double> run_times_us;  ///< per completed repetition
  double mean_run_time_us = 0.0;     ///< Eq. 2 over the first target_runs
  std::uint64_t tasks_executed = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_steals = 0;
  std::uint64_t yields = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t coordinator_ticks = 0;
  std::uint64_t cores_claimed = 0;
  std::uint64_t cores_reclaimed = 0;
  double exec_time_us = 0.0;          ///< wall time spent executing tasks
  double cache_penalty_us = 0.0;      ///< exec time lost to cold caches
  double steal_overhead_us = 0.0;     ///< wall time spent on steal attempts
  /// Locality breakdown: successful steals by the victim's distance tier
  /// (VERYNEAR..VERYFAR; sums to `steals`), and the total transfer cost
  /// charged for them (steal_tier_migration_us).
  std::uint64_t steals_by_tier[kNumDistanceTiers] = {0, 0, 0, 0};
  double migration_us = 0.0;
};

/// One timeline sample (taken every timeline_sample_period_us when that
/// parameter is positive): how many workers each program had active, and
/// how many cores were free in the allocation table.
struct TimelineSample {
  double t_us = 0.0;
  std::vector<unsigned> active_workers;  ///< per program
  unsigned free_cores = 0;
};

struct SimResult {
  std::vector<ProgramResult> programs;
  double total_time_us = 0.0;
  std::vector<double> core_busy_us;      ///< per-core total occupied time
  std::vector<double> core_exec_us;      ///< per-core productive exec time
  bool hit_time_limit = false;           ///< stopped at max_sim_time_us
  std::vector<TimelineSample> timeline;  ///< empty unless sampling enabled
  std::vector<TraceEvent> trace;         ///< empty unless collect_trace
  bool trace_truncated = false;          ///< trace hit trace_capacity

  [[nodiscard]] const ProgramResult& program(const std::string& name) const;
};

class SimEngine {
 public:
  SimEngine(const SimParams& params, std::vector<SimProgramSpec> specs);
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;
  ~SimEngine();

  /// Run to completion (or the time limit). Call once.
  SimResult run();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Convenience: simulate one program solo on the machine (baseline runs).
SimResult simulate_solo(const SimParams& params, const SimProgramSpec& spec);

}  // namespace dws::sim

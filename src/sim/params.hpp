// Parameters of the simulated multi-core machine and scheduling runtime.
//
// The defaults model the paper's testbed (2x Xeon E5620: 16 logical cores
// in 2 sockets) and its software configuration (T_SLEEP = k, coordinator
// period T = 10 ms). Costs are order-of-magnitude realistic for 2010s x86
// (a steal is a cross-core cache-line bounce; a wake is a futex syscall).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/topology.hpp"
#include "core/types.hpp"

namespace dws::sim {

struct SimParams {
  // ---- Machine ----
  unsigned num_cores = 16;
  unsigned num_sockets = 2;  ///< cores are split contiguously across sockets
  /// OS round-robin time slice per core (Linux CFS-era granularity).
  double quantum_us = 4000.0;

  // ---- Runtime operation costs (virtual microseconds) ----
  double pop_cost_us = 0.2;     ///< own-deque pop
  double steal_cost_us = 1.5;   ///< cross-core steal attempt (hit or miss)
  double wake_latency_us = 8.0; ///< sleep->running transition (futex wake)
  /// Exponential backoff on consecutive failed steals (MIT Cilk paces its
  /// thieves the same way): a victim sweep after `failed` failed sweeps
  /// costs (k-1) * steal_cost_us * 2^(failed/4) (integer division),
  /// capped here. Calibration note:
  /// with the defaults on k = 16 cores, accumulating T_SLEEP = 16 failed
  /// sweeps takes ~1.35 ms of *sustained* idleness (4 sweeps each at
  /// 22.5, 45, 90 and 180 µs; the cap is never reached) — longer than
  /// the sub-millisecond tail of a parallel-for phase (so workers survive
  /// barriers, matching the paper's §4.4 no-single-program-degradation
  /// claim) but far shorter than a genuine low-demand period (a serial
  /// merge, a narrow factorization tail), so cores are still released
  /// exactly when a co-runner could use them. The span shrinks fast with
  /// k: at k = 4, T_SLEEP = 4 sweeps of 4.5 µs span only ~18 µs.
  double steal_backoff_cap_us = 500.0;
  /// One-off transfer cost charged when a steal *succeeds*, indexed by
  /// the victim's distance tier (VERYNEAR..VERYFAR): pulling the task's
  /// working set across the interconnect costs real time, which is what
  /// makes near-first victim ordering pay off. All-zero by default so the
  /// paper-reproduction figures are untouched; multi-socket experiments
  /// turn it on explicitly. Order-of-magnitude guidance:
  /// an LLC-local transfer is free-ish, a cross-socket one costs a few
  /// steal_cost_us.
  double steal_tier_migration_us[kNumDistanceTiers] = {0.0, 0.0, 0.0, 0.0};

  // ---- Cache model ----
  /// Execution time needed to warm a cold private cache to ~63% warmth.
  double core_warmup_us = 1500.0;
  /// Foreign execution time that cools a warm private cache to ~37%.
  double core_decay_us = 1500.0;
  /// Same pair for the per-socket shared LLC (bigger => slower to warm
  /// and slower to thrash).
  double llc_warmup_us = 12000.0;
  double llc_decay_us = 12000.0;
  /// Max slowdown contributions at fully cold cache for a task with
  /// mem_intensity = 1: effective_time = work * (1 + mi*(core_pen*(1-w_c)
  /// + llc_pen*(1-w_s))).
  double core_miss_penalty = 0.8;
  double llc_miss_penalty = 0.7;
  /// Exec segments are capped at this length so the piecewise-constant
  /// cache factor tracks warmth evolution.
  double cache_update_granularity_us = 500.0;

  // ---- Scheduling policy knobs ----
  int t_sleep = -1;                     ///< -1 => k (§3.4)
  double coordinator_period_us = 10000; ///< T = 10 ms (§3.4)

  // ---- Simulation control ----
  std::uint64_t seed = 0xD5EED;
  /// Hard stop; exceeding it marks the result as deadlocked/incomplete.
  double max_sim_time_us = 4.0e9;
  /// When > 0, record a timeline sample (per-program active worker
  /// counts + free cores) every this many virtual microseconds.
  double timeline_sample_period_us = 0.0;
  /// Record a full scheduling-event trace into SimResult::trace (see
  /// sim/trace.hpp). Bounded by trace_capacity; recording stops silently
  /// at the cap (the result notes truncation).
  bool collect_trace = false;
  std::size_t trace_capacity = 1u << 20;

  [[nodiscard]] int effective_t_sleep() const noexcept {
    return t_sleep >= 0 ? t_sleep : static_cast<int>(num_cores);
  }
  /// The machine model matching this parameter set: cores split
  /// contiguously across num_sockets sockets.
  [[nodiscard]] Topology topology() const {
    return Topology::synthetic(num_cores, num_sockets);
  }
};

}  // namespace dws::sim

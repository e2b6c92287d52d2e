// The traced run's layer ledger: single-layer timings taken through each
// layer's public calls, and the reference legs that put the paper's §4.4
// and Fig. 4 claims on real threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "rounds.hpp"

namespace bench {

/// Verification outcomes of the ledger's own kernel runs.
struct LedgerChecks {
  unsigned attempted = 0;
  unsigned failed = 0;
  std::vector<std::string> failures;
};

/// runtime.deque, runtime.task_pool, runtime.scheduler, runtime.worker
/// fan-out, runtime.coordinator.tick_us, core.core_table,
/// core.coordinator_policy and core.victim_order timings.
void micro_ledger(const Setting& s, Metrics& out, Tracer* t,
                  std::uint64_t parent);

/// apps.<K>.*, the CLASSIC-solo and ABP-co-run reference ratios, and the
/// real-thread normalized co-run time bench.corun_norm.
void reference_ledger(const Setting& s, Metrics& out, LedgerChecks& checks,
                      Tracer* t, std::uint64_t parent);

}  // namespace bench

// Runtime configuration knobs, mirroring the parameters the paper
// exposes: the coordinator period T (§3.4), the machine width k and
// co-runner count m (§2). T_SLEEP is k, as §3.4 recommends.
#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace dws {

struct Config {
  /// Scheduling policy.
  SchedMode mode = SchedMode::kDws;

  /// Machine width k: one worker per core per program (§3.1).
  /// 0 means "use std::thread::hardware_concurrency()".
  unsigned num_cores = 0;

  /// Declared number of co-running programs m, used for the initial
  /// equipartition of the core allocation table. A single program => 1.
  unsigned num_programs = 1;

  /// Coordinator wake-up period T in milliseconds (§3.4 suggests 10 ms).
  double coordinator_period_ms = 10.0;

  /// Pin worker i to hardware core i (real runtime only).
  bool pin_threads = true;

  /// Seed for victim-selection randomness (each worker's sweep start).
  std::uint64_t seed = 0x5eed5eed5eedULL;

  /// Crash tolerance: a co-runner whose liveness epoch has not advanced
  /// for this many consecutive coordinator periods (~K·T of wall time) is
  /// probed with kill(pid, 0) and, if the OS confirms the process is
  /// gone, its cores are force-released back to the free pool. 0 disables
  /// the stale sweep (heartbeats are still published so *other* programs
  /// can track us).
  unsigned stale_after_periods = 5;
};

}  // namespace dws

// Runtime/simulator configuration knobs, mirroring the parameters the
// paper exposes: T_SLEEP (§3.2), the coordinator period T (§3.4), the
// machine width k and co-runner count m (§2).
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

  /// T_SLEEP: a worker sleeps after this many consecutive failed steals.
  /// -1 selects the paper's recommendation T_SLEEP = k (§3.4, §4.3).
  int t_sleep = -1;

  /// Coordinator wake-up period T in milliseconds (§3.4 suggests 10 ms).
  double coordinator_period_ms = 10.0;

  /// A sleeping-worker wake is considered only when the average backlog
  /// per active worker (N_b / N_a) reaches this many tasks (§3.3: "if each
  /// worker only needs to process a few tasks on average, the coordinator
  /// will not wake up sleeping workers"). The paper's Eq. 1 corresponds
  /// to a threshold of 1.
  double wake_threshold = 1.0;

  /// Socket count of the machine model (core/topology.hpp): cores are
  /// split contiguously across sockets. 1 models a flat machine; 0 asks
  /// for sysfs auto-detection (with the flat layout as deterministic
  /// fallback where /sys is absent).
  unsigned num_sockets = 1;

  /// SMT width of the synthetic machine model: this many consecutive
  /// cores form one physical core (VERYNEAR victims). Ignored under
  /// auto-detection, which reads the real sibling map.
  unsigned smt_per_core = 1;

  /// Pin worker i to hardware core i (real runtime only).
  bool pin_threads = true;

  /// Seed for victim-selection and core-selection randomness.
  std::uint64_t seed = 0x5eed5eed5eedULL;

  /// §4.4 extension: run this program under *work-sharing* — every spawn
  /// goes to the scheduler's central queue instead of the spawning
  /// worker's deque. The sleep/wake policy and coordinator operate
  /// unchanged (the paper's claim that DWS transfers to other dynamic
  /// load-balancing models).
  bool work_sharing = false;

  /// Crash tolerance: a co-runner whose liveness epoch has not advanced
  /// for this many consecutive coordinator periods (~K·T of wall time) is
  /// probed with kill(pid, 0) and, if the OS confirms the process is
  /// gone, its cores are force-released back to the free pool. 0 disables
  /// the stale sweep (heartbeats are still published so *other* programs
  /// can track us).
  unsigned stale_after_periods = 5;

  /// §6 extension: adapt T_SLEEP online. A worker woken sooner than
  /// adaptive_short_sleep_ms after going to sleep doubles the program's
  /// threshold (capped at 64 x max(base, 1)); the coordinator decays it
  /// back each period. Same rule as the simulator (AdaptiveTSleep). Off
  /// by default (the paper fixes T_SLEEP = k).
  bool adaptive_t_sleep = false;
  /// "Premature sleep" horizon; <= 0 selects coordinator_period_ms.
  double adaptive_short_sleep_ms = -1.0;

  /// Resolved T_SLEEP for a k-core machine.
  [[nodiscard]] constexpr int effective_t_sleep(unsigned k) const noexcept {
    return t_sleep >= 0 ? t_sleep : static_cast<int>(k);
  }
};

}  // namespace dws

// Per-worker steal bookkeeping implementing the mode-dependent part of
// Algorithm 1 (§3.2): count consecutive failed steals and decide, after
// each failure, whether the worker should spin, yield its core, or go to
// sleep and release the core.
//
// This class is pure policy — no threads, no atomics — so the identical
// code drives both the real runtime's workers and the simulator's virtual
// workers, which is what makes the simulated evaluation exercise the
// paper's actual contribution.
#pragma once

#include "core/types.hpp"

namespace dws {

/// What a worker should do after a failed steal attempt.
enum class StealOutcome : int {
  /// Try again immediately (CLASSIC busy-spinning).
  kRetry = 0,
  /// Yield the core to co-located threads, then try again (ABP, and the
  /// pre-threshold behaviour of every sleeping mode).
  kYield = 1,
  /// Release the core and sleep until the coordinator wakes us
  /// (DWS / DWS-NC once failed_steals reaches T_SLEEP).
  kSleep = 2,
};

class StealPolicy {
 public:
  /// The failure counter saturates here instead of growing without bound:
  /// kClassic returns kRetry forever and never resets, so a long-starved
  /// busy-spinning worker would otherwise increment a plain int past
  /// INT_MAX — signed overflow, UB. The cap is far above any meaningful
  /// threshold; an oversized t_sleep is clamped to it so
  /// `failed_steals_ >= t_sleep_` keeps firing after saturation.
  static constexpr int kFailedStealsSaturation = 1 << 20;

  /// `t_sleep` is the resolved threshold: k in the runtime (§3.4),
  /// SimParams::effective_t_sleep in the simulator.
  constexpr StealPolicy(SchedMode mode, int t_sleep) noexcept
      : mode_(mode), t_sleep_(clamp_t_sleep(t_sleep)) {}

  /// Algorithm 1 lines 5-6 / 10-11: any successful task acquisition
  /// (own pool pop or steal) resets the failure count.
  constexpr void on_task_acquired() noexcept { failed_steals_ = 0; }

  /// Algorithm 1 lines 13-17: record one failed steal and return the
  /// action the worker must take.
  constexpr StealOutcome on_steal_failed() noexcept {
    if (failed_steals_ < kFailedStealsSaturation) ++failed_steals_;
    switch (mode_) {
      case SchedMode::kClassic:
        return StealOutcome::kRetry;
      case SchedMode::kAbp:
      case SchedMode::kEp:
        return StealOutcome::kYield;
      case SchedMode::kDws:
      case SchedMode::kDwsNc:
        // Algorithm 1 line 14: sleep once T_SLEEP consecutive steals have
        // failed — i.e. on the T_SLEEP-th failure, not the (T_SLEEP+1)-th
        // (a historical off-by-one; `>` made every threshold behave one
        // larger than configured).
        return failed_steals_ >= t_sleep_ ? StealOutcome::kSleep
                                          : StealOutcome::kYield;
    }
    return StealOutcome::kRetry;
  }

  /// Called when the worker actually goes to sleep; the counter restarts
  /// so a woken worker gets a full T_SLEEP budget again.
  constexpr void on_sleep() noexcept { failed_steals_ = 0; }

  [[nodiscard]] constexpr int failed_steals() const noexcept {
    return failed_steals_;
  }
  [[nodiscard]] constexpr SchedMode mode() const noexcept { return mode_; }
  [[nodiscard]] constexpr int t_sleep() const noexcept { return t_sleep_; }

 private:
  static constexpr int clamp_t_sleep(int t_sleep) noexcept {
    return t_sleep > kFailedStealsSaturation ? kFailedStealsSaturation
                                             : t_sleep;
  }

  SchedMode mode_;
  int t_sleep_;
  int failed_steals_ = 0;
};

}  // namespace dws

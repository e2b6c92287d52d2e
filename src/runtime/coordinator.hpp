// The per-program coordinator thread (§3.3): every T milliseconds it
// heartbeats, sweeps stale co-runners, and runs the shared coordinator
// step (run_coordinator_step: snapshot, decide, acquire, wake) over this
// program's workers. Two triggers run the step alone between periods: a
// nudge (external work on a fully-asleep program) and the backlog watch
// (a queued task that has waited kBacklogAge; core/backlog_age.hpp).
//
// Only the sleeping modes (DWS, DWS-NC) get a live coordinator; for other
// modes the scheduler does not construct one, matching the paper's claim
// that the coordinator is DWS's only overhead (§4.4).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "core/backlog_age.hpp"
#include "core/coordinator_policy.hpp"
#include "core/atomics_policy.hpp"
#include "core/types.hpp"
#include "util/layout.hpp"

namespace dws::rt {

class Scheduler;

/// The coordinator's signals as one word: stop, nudge and the watch's arm
/// are bits any thread sets with one acq_rel fetch_or, then a wake. While
/// a watch runs the coordinator sets kWatching and stops listening for
/// arms. tests/test_check_signal.cpp model-checks this template; nothing
/// here is noexcept, as the checker unwinds from atomic operations.
template <typename Policy = StdAtomicsPolicy>
class SignalWord {
 public:
  static constexpr std::uint32_t kStop = 1, kNudge = 2, kArmed = 4,
                                 kWatching = 8;

  void stop() { raise(kStop); }
  /// A nudge stays set until a wait consumes it.
  void nudge() { raise(kNudge); }
  /// The fetch_or publishes the push behind the arm to its watch.
  void arm() {
    if ((word_.load(std::memory_order_relaxed) & kArmed) == 0 &&
        (word_.fetch_or(kArmed, std::memory_order_acq_rel) &
         (kArmed | kWatching)) == 0) {
      Policy::wake(word_);
    }
  }
  /// Coordinator: the bits set, once one it listens for is set or
  /// `deadline` comes (it may return early). Consumes a nudge.
  std::uint32_t wait_until(std::chrono::steady_clock::time_point deadline) {
    std::uint32_t w = word_.load(std::memory_order_acquire);
    if ((w & (kStop | kNudge | ((w & kWatching) != 0 ? 0 : kArmed))) == 0) {
      Policy::wait_until(word_, w, deadline);
      w = word_.load(std::memory_order_acquire);
    }
    return (w & kNudge) == 0
               ? w
               : word_.fetch_and(~kNudge, std::memory_order_acq_rel);
  }
  /// Coordinator, on an arm: disarm and set kWatching. Only it clears
  /// kArmed and sets kWatching, so one xor does both.
  void begin_watch() {
    word_.fetch_xor(kArmed | kWatching, std::memory_order_acq_rel);
  }
  /// Coordinator: end or abandon the watch. True if an arm came during it.
  bool end_watch() {
    return (word_.fetch_and(~kWatching, std::memory_order_acq_rel) &
            kArmed) != 0;
  }

 private:
  // Set, then wake: a wake first could fall between test and sleep.
  void raise(std::uint32_t bit) {
    if ((word_.fetch_or(bit, std::memory_order_acq_rel) & bit) == 0) {
      Policy::wake(word_);
    }
  }

  DWS_SHARED typename Policy::template atomic<std::uint32_t> word_{0};
};

class Coordinator {
 public:
  /// Period T comes from `sched.config()`.
  explicit Coordinator(Scheduler& sched);
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;
  ~Coordinator();

  void start();
  /// Signal and join. Safe to call multiple times.
  void stop();

  /// λ of the backlog watch: how long a queued task must wait before its
  /// deque wakes sleepers. It is the wake latency a sleep/wake cycle
  /// costs, so a task that waited this long pays for its wake, while the
  /// phases that end sooner wake no one. Chosen from a 100 / 300 /
  /// 1000 µs sweep of dws-bench `solo-dc` (EXPERIMENTS.md, "Real
  /// threads: backlog-age wake").
  static constexpr std::chrono::microseconds kBacklogAge{300};
  /// The watch's longest wait. Pushes that keep re-arming the watch while
  /// no task outwaits a cycle are a run of phases shorter than λ: each
  /// such futile cycle doubles the next wait, up to this cap, so they
  /// cost a coordinator wakeup every 2.4 ms instead of every λ (about
  /// 15 µs of CPU each on a 4-vCPU VM). A step, or a cycle that ends
  /// unarmed, restores λ. A longer wait only lengthens what counts as
  /// aged, so no step fires for a task younger than λ.
  static constexpr std::chrono::microseconds kBacklogWatchCap{8 *
                                                              kBacklogAge};

  /// Run one period's work immediately: heartbeat, stale sweep, then the
  /// demand step (also used by tests to drive the coordinator
  /// deterministically without waiting out the period).
  void tick();

  /// Run the demand step now (or, when a step is running, right after
  /// it), without the period's heartbeat and stale sweep. Called when
  /// external work arrives on a fully-asleep program.
  void nudge() noexcept { signals_.nudge(); }

  /// Arm the backlog watch: the coordinator marks every deque's
  /// (top, bottom), waits kBacklogAge (up to kBacklogWatchCap after
  /// futile cycles), and runs the demand step if a deque still holds the
  /// task it held at the mark. Called by a worker whose push took its
  /// deque from empty to non-empty while a worker sleeps; a no-op while
  /// the watch is armed. Wakes the coordinator only if no watch runs.
  void arm_backlog_watch() noexcept { signals_.arm(); }

  [[nodiscard]] std::uint64_t ticks() const noexcept {
    return ticks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t wakes() const noexcept {
    return wakes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cores_claimed() const noexcept {
    return cores_claimed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t cores_reclaimed() const noexcept {
    return cores_reclaimed_.load(std::memory_order_relaxed);
  }
  /// Co-running programs this coordinator has declared dead and swept.
  [[nodiscard]] std::uint64_t stale_programs_swept() const noexcept {
    return stale_programs_swept_.load(std::memory_order_relaxed);
  }
  /// Cores recovered from dead co-runners by the stale sweep.
  [[nodiscard]] std::uint64_t cores_recovered() const noexcept {
    return cores_recovered_.load(std::memory_order_relaxed);
  }

 private:
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  void thread_main();
  /// The demand step alone (snapshot, decide, acquire, wake); counted in
  /// ticks().
  void step();
  /// A backlog watch: start_watch disarms and marks every deque; after
  /// watch_wait_, end_watch runs the step if a deque's oldest task is
  /// still queued, and sets the next watch's wait.
  void start_watch();
  void end_watch();

  Scheduler& sched_;
  std::unique_ptr<CoordinatorDriver> driver_;  // only for table-using modes
  std::unique_ptr<StaleSweeper> sweeper_;      // crash tolerance (optional)

  std::thread thread_;
  // Set by the Scheduler (stop, nudge) and by spawning workers on push
  // edges (arm): its own line, away from the tick counters below.
  alignas(layout::kCacheLineBytes) DWS_SHARED SignalWord<> signals_;
  // Coordinator thread only.
  std::vector<DequeMark> marks_;
  std::chrono::microseconds watch_wait_ = kBacklogAge;

  // Monitoring counters, written by the coordinator thread alone on its
  // steps and read racily by stats snapshots.
  alignas(layout::kCacheLineBytes) DWS_OWNED_BY(coordinator)
      std::atomic<std::uint64_t> ticks_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> wakes_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> cores_claimed_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> cores_reclaimed_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> stale_programs_swept_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> cores_recovered_{0};
};

}  // namespace dws::rt

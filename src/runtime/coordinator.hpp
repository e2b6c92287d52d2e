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
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/backlog_age.hpp"
#include "core/coordinator_policy.hpp"
#include "core/types.hpp"
#include "util/layout.hpp"

namespace dws::rt {

class Scheduler;

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
  void nudge() noexcept;

  /// Arm the backlog watch: the coordinator marks every deque's
  /// (top, bottom), waits kBacklogAge (up to kBacklogWatchCap after
  /// futile cycles), and runs the demand step if a deque still holds the
  /// task it held at the mark. Called by a worker whose push took its
  /// deque from empty to non-empty while a worker sleeps; a no-op while
  /// the watch is armed.
  void arm_backlog_watch() noexcept {
    if (watch_armed_.load(std::memory_order_relaxed)) return;
    if (watch_armed_.exchange(true, std::memory_order_acq_rel)) return;
    // Through the mutex: the coordinator tests the flag under it before
    // blocking, so the notify cannot fall between its test and its wait.
    { const std::lock_guard<std::mutex> lock(m_); }
    cv_.notify_one();
  }

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
  // Stop/nudge handshake: written by the owning Scheduler (stop, nudge)
  // and read by the coordinator thread — a different writer set than the
  // tick counters below, so the two groups get separate lines.
  DWS_SHARED std::mutex m_;
  DWS_SHARED std::condition_variable cv_;
  // The backlog watch's wait: only stop() and nudge() signal it, so the
  // arms that push edges keep making during a watch do not wake the
  // coordinator.
  DWS_SHARED std::condition_variable watch_cv_;
  DWS_SHARED bool stop_requested_ = false;  // guarded by m_
  DWS_SHARED bool nudged_ = false;          // guarded by m_

  // Backlog watch: set by spawning workers on a push edge, cleared by the
  // coordinator thread at the start of a watch cycle. Read on every push
  // edge while a worker sleeps, so it does not share the mutex's line.
  alignas(layout::kCacheLineBytes) DWS_SHARED std::atomic<bool> watch_armed_{
      false};
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

// The per-program coordinator thread (§3.3): every T milliseconds it
// heartbeats, sweeps stale co-runners, and runs the shared coordinator
// step (run_coordinator_step: snapshot, decide, acquire, wake) over this
// program's workers.
//
// Only the sleeping modes (DWS, DWS-NC) get a live coordinator; for other
// modes the scheduler does not construct one, matching the paper's claim
// that the coordinator is DWS's only overhead (§4.4).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

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

  /// Run one coordination step immediately (also used by tests to drive
  /// the coordinator deterministically without waiting out the period).
  void tick();

  /// Cut the current period's sleep short so the next tick happens now
  /// (or, when a tick is running, right after it). Called when external
  /// work arrives on a fully-asleep program.
  void nudge() noexcept;

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

  Scheduler& sched_;
  std::unique_ptr<CoordinatorDriver> driver_;  // only for table-using modes
  std::unique_ptr<StaleSweeper> sweeper_;      // crash tolerance (optional)

  std::thread thread_;
  // Stop/nudge handshake: written by the owning Scheduler (stop, nudge)
  // and read by the coordinator thread — a different writer set than the
  // tick counters below, so the two groups get separate lines.
  DWS_SHARED std::mutex m_;
  DWS_SHARED std::condition_variable cv_;
  DWS_SHARED bool stop_requested_ = false;  // guarded by m_
  DWS_SHARED bool nudged_ = false;          // guarded by m_

  // Monitoring counters, written by the coordinator thread alone on its
  // once-per-period tick and read racily by stats snapshots.
  alignas(layout::kCacheLineBytes) DWS_OWNED_BY(coordinator)
      std::atomic<std::uint64_t> ticks_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> wakes_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> cores_claimed_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> cores_reclaimed_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> stale_programs_swept_{0};
  DWS_OWNED_BY(coordinator) std::atomic<std::uint64_t> cores_recovered_{0};
};

}  // namespace dws::rt

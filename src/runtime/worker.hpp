// A worker thread: one per (program, core), affiliated permanently with
// its core (§3.1). Runs Algorithm 1 (§3.2) with the mode's StealPolicy,
// participates in the sleep/wake protocol, and maintains owner-written
// statistics.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

#include "core/steal_policy.hpp"
#include "core/types.hpp"
#include "core/victim_order.hpp"
#include "runtime/deque.hpp"
#include "runtime/sleep_word.hpp"
#include "runtime/task.hpp"
#include "runtime/task_pool.hpp"
#include "util/layout.hpp"
#include "util/rng.hpp"

namespace dws::rt {

class Scheduler;

/// Monotonic counter written by one owner thread and racily readable from
/// others (relaxed atomics, so concurrent snapshots are well-defined but
/// may lag). Copying takes a relaxed snapshot. Keeps plain-integer syntax
/// so counting sites and reporting code read naturally.
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  // Copying is an explicit relaxed load/store pair, exactly like
  // assignment: the source may be a *live* counter still being bumped by
  // its owner (Scheduler::stats() aggregates per-worker counters without
  // quiescing), so the copy must go through the atomic — never a plain
  // member copy, which would be a racy 64-bit read and could tear.
  RelaxedCounter(const RelaxedCounter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
  }
  RelaxedCounter& operator=(const RelaxedCounter& o) noexcept {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator++() noexcept {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator+=(std::uint64_t n) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const noexcept { return load(); }  // NOLINT
  [[nodiscard]] std::uint64_t load() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  // dws-layout: packed-ok single-field wrapper; each wrapping field
  // declares the actual sharing domain (see WorkerStats)
  std::atomic<std::uint64_t> v_{0};
};

/// Owner-written execution counters. Reads from other threads (coordinator
/// snapshots, live Scheduler::stats() calls, test assertions) see relaxed
/// monotonic values; exact totals are only guaranteed after the worker
/// thread joined or the scheduler quiesced.
///
/// The struct is cache-line aligned (and therefore padded to a line
/// multiple) so the counters — bumped on every task execution and steal
/// attempt — never share a line with whatever neighbouring Worker field a
/// *different* thread writes; layout_audit tracks the concrete offsets.
/// The nine counters packing two lines among themselves is deliberate:
/// they have a single writer, so there is no destructive interference to
/// stride away, only the owner's own locality to keep.
struct alignas(layout::kCacheLineBytes) WorkerStats {
  DWS_OWNED_BY(worker) RelaxedCounter tasks_executed;
  DWS_OWNED_BY(worker) RelaxedCounter steal_attempts;  ///< victim probes
  DWS_OWNED_BY(worker) RelaxedCounter steals;
  DWS_OWNED_BY(worker) RelaxedCounter failed_steals;  ///< failed sweeps
  DWS_OWNED_BY(worker) RelaxedCounter yields;
  DWS_OWNED_BY(worker) RelaxedCounter sleeps;
  DWS_OWNED_BY(worker) RelaxedCounter wakes;
  DWS_OWNED_BY(worker)
  RelaxedCounter evictions;  ///< times this worker vacated a reclaimed core
  DWS_OWNED_BY(worker)
  RelaxedCounter heap_spawns;  ///< spawns that fell back to new (see pool)
};

class Worker {
 public:
  using State = SleepState;

  /// How long a worker keeps searching after it ran dry once StealPolicy
  /// says sleep (DWS, DWS-NC), when it is its program's last Active
  /// worker or its last busy stretch lasted at least kWakeCost (see
  /// lingers()). It must outlast the gap an external driver leaves
  /// between two `Scheduler::run()` calls, which is part of one round
  /// trip: dws-bench's ledger puts that round trip at 66-134 µs at p99
  /// (`external_run_us_p99`, 4-vCPU Xeon). It also outlasts the join and
  /// serial step between two phases of a Table-2 kernel, so a thief that
  /// paid for its wake takes the next phase instead of sleeping through
  /// it, while an idle program still frees its last core about 200 µs
  /// after its work ends.
  static constexpr std::chrono::microseconds kLinger{200};
  /// One sleep/wake cycle of a DWS worker on the 4-vCPU Xeon host: from a
  /// submission to a fully asleep program (nudge, coordinator step, claim,
  /// wake) to its task running took 37-44 µs at p50 and 44-51 µs on
  /// average over 1,000 samples (EXPERIMENTS.md, "Real threads: workers
  /// that paid linger"). A busy stretch at least this long earned the
  /// wake it would cost to bring the worker back, so it lingers: the
  /// spin-then-block break-even of Karlin et al. (SOSP 1991). A shorter
  /// one sleeps on the T_SLEEP-th failure. Probes at 30 and 80 µs traded
  /// `solo-phased` CPU against Heat, SOR and PNN fan-out (same section).
  static constexpr std::chrono::microseconds kWakeCost{50};

  Worker(Scheduler& sched, unsigned id);
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  ~Worker();

  /// Launch the OS thread. Called once by the scheduler.
  void start();
  /// Join the OS thread (the scheduler has already signalled shutdown).
  void join();

  /// Worker id == core id this worker is affiliated with.
  [[nodiscard]] unsigned id() const noexcept { return id_; }

  /// seq_cst: Scheduler::enqueue's scan of the states is its half of the
  /// sleep handshake (see SleepWord::publish_sleeping).
  [[nodiscard]] State state() const noexcept { return sleep_.state(); }

  /// Coordinator-side wake, and in the non-sleeping modes the submitter's
  /// on an idle program. Returns true iff the worker was sleeping and is
  /// now Active (the caller must already have secured the worker's core
  /// in the allocation table for DWS).
  bool wake() noexcept { return sleep_.wake(); }

  /// Wake the worker for shutdown regardless of state.
  void notify_shutdown() noexcept { sleep_.shutdown(); }

  [[nodiscard]] ChaseLevDeque<TaskBase*>& deque() noexcept { return deque_; }
  [[nodiscard]] std::size_t queue_size() const noexcept {
    return deque_.size_approx();
  }
  [[nodiscard]] const WorkerStats& stats() const noexcept { return stats_; }

  /// This worker's task-storage pool (allocation is worker-thread-only;
  /// release may come from any thread via TaskSlabPool::release).
  [[nodiscard]] TaskSlabPool& pool() noexcept { return pool_; }

  /// One help-first scheduling step on behalf of a nested wait: pop own
  /// deque, poll the inbox, or sweep the victims once. Returns nullptr when
  /// no task was found. Only callable from this worker's own thread.
  TaskBase* find_task();

 private:
  friend class Scheduler;
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  void thread_main();
  /// True when this worker must vacate its core (space-sharing modes only):
  /// the allocation table no longer lists our program as the core's user.
  [[nodiscard]] bool should_vacate() const noexcept;
  /// The kSleep path of the loop: true while this worker should keep
  /// searching instead. It does for up to kLinger after it ran dry, if it
  /// is its program's only Active worker or its last busy stretch
  /// (busy_since_ to ran_dry_) lasted at least kWakeCost.
  [[nodiscard]] bool lingers() const;
  void go_to_sleep(bool count_as_eviction);

  Scheduler& sched_;
  const unsigned id_;
  DWS_OWNED_BY(worker) util::Xoshiro256 rng_;
  /// Near-first victim sweep; immutable (its only input is rng_'s draw).
  const TieredVictimOrder victim_order_;
  StealPolicy policy_;
  ChaseLevDeque<TaskBase*> deque_;  // line-isolates its own hot words
  TaskSlabPool pool_;               // line-isolates its own hot words
  WorkerStats stats_;               // alignas(64), owner-written only

  std::thread thread_;
  // The last busy stretch: from the task taken after being idle to the
  // next failed sweep. Idle while ran_dry_ >= busy_since_ (both start at
  // the epoch), so the clock is read once per idle <-> busy transition.
  // They fill thread_'s line, which no other thread writes while this
  // one runs.
  DWS_OWNED_BY(worker) std::chrono::steady_clock::time_point busy_since_{};
  DWS_OWNED_BY(worker) std::chrono::steady_clock::time_point ran_dry_{};
  // Wake domain: the sleep word is CASed by the coordinator and the owner,
  // isolated on its own line so coordinator wakes never invalidate stats_
  // (above) in the owner's cache. thread_ precedes the alignas boundary:
  // it is written only before/after the thread runs, so sharing its line
  // is harmless.
  alignas(layout::kCacheLineBytes) DWS_SHARED SleepWord<> sleep_;
};

/// The worker currently executing on this thread (nullptr on external
/// threads). Set for the lifetime of Worker::thread_main.
[[nodiscard]] Worker* current_worker() noexcept;

}  // namespace dws::rt

// A worker thread: one per (program, core), affiliated permanently with
// its core (§3.1). Runs Algorithm 1 (§3.2) with the mode's StealPolicy,
// participates in the sleep/wake protocol, and maintains owner-written
// statistics.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>

#include "core/steal_policy.hpp"
#include "core/topology.hpp"
#include "core/types.hpp"
#include "core/victim_order.hpp"
#include "runtime/deque.hpp"
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
  /// Locality breakdown of the steal traffic, indexed by DistanceTier
  /// (VERYNEAR..VERYFAR). Invariant (asserted by the stats suite): each
  /// array sums to steal_attempts / steals respectively once the worker
  /// quiesced. Same single-writer discipline as every counter above.
  DWS_OWNED_BY(worker) RelaxedCounter steal_attempts_by_tier[kNumDistanceTiers];
  DWS_OWNED_BY(worker) RelaxedCounter steals_by_tier[kNumDistanceTiers];
};

class Worker {
 public:
  enum class State : int {
    kActive = 0,    ///< running the Algorithm-1 loop
    kSleeping = 1,  ///< released its core; wakeable by the coordinator
    kParked = 2,    ///< EP worker outside the home partition; never woken
  };

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

  [[nodiscard]] State state() const noexcept {
    return static_cast<State>(state_.load(std::memory_order_acquire));
  }

  /// Coordinator-side wake. Returns true iff the worker was sleeping and
  /// has now been signalled (the caller must already have secured the
  /// worker's core in the allocation table for DWS).
  bool wake() noexcept;

  /// Wake the worker for shutdown regardless of state.
  void notify_shutdown() noexcept;

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
  void go_to_sleep(bool count_as_eviction);
  /// Block on the scheduler's idle gate while the program has no work at
  /// all (keeps idle schedulers off the CPU without altering behaviour
  /// while work exists).
  void idle_gate_block();

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
  // Wake domain: state_ is CASed/stored by the coordinator and the owner,
  // and m_/cv_/wake_pending_ move together with it under the sleep/wake
  // handshake — one sharing domain, isolated on its own line(s) so
  // coordinator wakes never invalidate stats_ (above) in the owner's
  // cache. thread_ precedes the alignas boundary: it is written only
  // before/after the thread runs, so sharing its line is harmless.
  alignas(layout::kCacheLineBytes) DWS_SHARED std::atomic<int> state_{
      static_cast<int>(State::kActive)};
  DWS_SHARED std::mutex m_;
  DWS_SHARED std::condition_variable cv_;
  DWS_SHARED bool wake_pending_ = false;  // guarded by m_
};

/// The worker currently executing on this thread (nullptr on external
/// threads). Set for the lifetime of Worker::thread_main.
[[nodiscard]] Worker* current_worker() noexcept;

}  // namespace dws::rt

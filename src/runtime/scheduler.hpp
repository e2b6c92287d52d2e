// The per-program scheduler: k workers (one per core), an optional
// coordinator thread, and the program's view of the shared core allocation
// table. This is the library's main entry point — one Scheduler instance
// corresponds to one "work-stealing program" in the paper's terminology.
//
// Co-running: several programs share a table either across processes
// (CoreTableShm) or within one process (CoreTableLocal); each constructs
// its Scheduler with a pointer to the shared table. A Scheduler built
// without a table creates a private single-program table when its mode
// needs one.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hpp"
#include "core/core_table.hpp"
#include "core/topology.hpp"
#include "core/types.hpp"
#include "runtime/coordinator.hpp"
#include "runtime/race_hook.hpp"
#include "runtime/task.hpp"
#include "runtime/worker.hpp"
#include "util/layout.hpp"

namespace dws::rt {

/// Aggregated snapshot of all workers' counters plus scheduler-level ones.
struct SchedulerStats {
  WorkerStats totals;
  std::vector<WorkerStats> per_worker;
  std::uint64_t coordinator_ticks = 0;
  std::uint64_t coordinator_wakes = 0;
  std::uint64_t cores_claimed = 0;
  std::uint64_t cores_reclaimed = 0;
  std::uint64_t stale_programs_swept = 0;  ///< dead co-runners recovered from
  std::uint64_t cores_recovered = 0;       ///< their cores returned to free
};

/// Where task storage came from, aggregated across the workers' pools.
/// `pooled_spawns + heap_spawns + external_spawns` counts every spawn;
/// `slab_allocs` is the number of actual heap allocations the pooled ones
/// cost (one per TaskSlabPool slab — zero in steady state). The spawn
/// benchmark asserts the zero-alloc steady-state claim against this.
struct TaskAllocStats {
  std::uint64_t pooled_spawns = 0;    ///< worker spawns served by a pool slot
  std::uint64_t heap_spawns = 0;      ///< worker spawns that fell back to new
  std::uint64_t external_spawns = 0;  ///< non-worker spawns (always heap)
  std::uint64_t slab_allocs = 0;
  std::uint64_t local_frees = 0;
  std::uint64_t remote_frees = 0;
  std::uint64_t remote_drains = 0;
};

class Scheduler {
 public:
  /// `shared_table`, when given, must outlive the scheduler and have been
  /// created with the num_cores this config resolves to. Ownership stays
  /// with the caller (it is shared between co-running programs).
  explicit Scheduler(const Config& cfg, CoreTable* shared_table = nullptr);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Blocks until all workers and the coordinator have exited. All
  /// submitted work must have been waited for before destruction;
  /// leftover unexecuted tasks are destroyed without running.
  ~Scheduler();

  // ---- Work submission ----

  /// Spawn `fn` into `group`. Callable from a worker of this scheduler
  /// (placement-constructs the task in the worker's slab pool and pushes
  /// to its own deque, Algorithm 1's common case) or from any external
  /// thread (heap task through the injection inbox). Under an installed
  /// race-replay hook the task instead executes inline, depth-first,
  /// before this call returns; under the live-schedule parallel hook
  /// (FastTrack mode) it runs normally but carries a happens-before
  /// token captured here, at the spawn site.
  template <typename F>
  void spawn(TaskGroup& group, F&& fn) {
    using Task = TaskImpl<std::decay_t<F>>;
    group.strict_on_spawn();
#ifndef DWS_RACE_DISABLED
    if (race::ExecHook* h = exec_hook_.load(std::memory_order_acquire);
        h != nullptr) {
      // Serial replay consumes the task inline at the spawn site; its
      // storage stays on the heap (replay is not a perf path, and the
      // spawning thread is typically not a worker of this scheduler).
      group.add_pending();
      external_spawns_.fetch_add(1, std::memory_order_relaxed);
      h->on_spawn(*this, group, new Task(&group, std::forward<F>(fn)));
      return;
    }
#endif
    group.add_pending();
    Worker* w = current_worker();
    if (w != nullptr && &w->sched_ != this) w = nullptr;
    TaskBase* task = nullptr;
    if constexpr (TaskSlabPool::fits<Task>()) {
      if (w != nullptr) {
        // Hot path: recycled slot, placement-new. Construction resets
        // every TaskBase field (race token, lineage, links) — a reused
        // slot cannot leak its previous occupant's state.
        TaskSlabPool::Slot* slot = w->pool_.allocate();
        task = new (TaskSlabPool::storage(slot))
            Task(&group, std::forward<F>(fn));
        task->set_pool_slot(slot);
      }
    }
    if (task == nullptr) {
      // External spawn, or a closure too large (or over-aligned) for a
      // slot: heap fallback.
      task = new Task(&group, std::forward<F>(fn));
      count_heap_spawn(w);
    }
#ifndef DWS_RACE_DISABLED
    if (race::ParallelHook* ph =
            race::detail::parallel_hook().load(std::memory_order_acquire);
        ph != nullptr) {
      // Publish-edge: everything the spawning thread did so far
      // happens-before the task, wherever it is popped or stolen. The
      // token rides the task through the deque/inbox, whose own
      // release/acquire ordering makes it safely visible to the thief.
      task->set_race_token(ph->on_task_published(group));
    }
#endif
    enqueue(task, w);
  }

  /// Help-first join: the calling worker executes/steals tasks until the
  /// group drains; external threads block. Rethrows the first task
  /// exception captured by the group.
  void wait(TaskGroup& group);

  /// Convenience: run `fn` as a root task and wait for it (and, because
  /// the API is structured, everything it transitively spawned).
  template <typename F>
  void run(F&& fn) {
    TaskGroup root;
    spawn(root, std::forward<F>(fn));
    wait(root);
  }

  // ---- Introspection ----

  /// True when the calling thread is one of this scheduler's workers.
  [[nodiscard]] bool on_worker_thread() const noexcept {
    const Worker* w = current_worker();
    return w != nullptr && &w->sched_ == this;
  }

  [[nodiscard]] unsigned num_workers() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] ProgramId pid() const noexcept { return pid_; }
  [[nodiscard]] SchedMode mode() const noexcept { return cfg_.mode; }
  [[nodiscard]] const Config& config() const noexcept { return cfg_; }
  /// The allocation table in use (nullptr for modes that do not use one).
  [[nodiscard]] CoreTable* table() noexcept { return table_; }
  /// The machine model victim selection and core-exchange rank cores by:
  /// the flat one-socket machine of num_cores cores.
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }

  /// N_b: queued tasks across all deques plus the injection inbox.
  [[nodiscard]] std::uint64_t queued_tasks() const noexcept;
  /// N_a: workers currently in the Active state.
  [[nodiscard]] unsigned active_workers() const noexcept;
  /// Workers asleep, or in CLASSIC, ABP and EP blocked idle.
  [[nodiscard]] unsigned sleeping_workers() const noexcept;

  [[nodiscard]] SchedulerStats stats() const;

  /// Task-storage provenance counters (racily readable while running;
  /// exact after quiescence). See TaskAllocStats.
  [[nodiscard]] TaskAllocStats alloc_stats() const;

  /// The worker affiliated with core `core` (0-based, < num_workers()).
  [[nodiscard]] Worker& worker_at(unsigned core) noexcept {
    return *workers_[core];
  }

  /// The coordinator, or nullptr for modes that run without one.
  [[nodiscard]] Coordinator* coordinator() noexcept {
    return coordinator_.get();
  }

#ifndef DWS_RACE_DISABLED
  // ---- Serial race-replay mode (src/race; see docs/CHECKING.md) ----

  /// Install (or with nullptr remove) the replay hook. The scheduler
  /// must be quiescent: every previously submitted group waited for.
  /// While installed, all spawns execute inline on the spawning thread
  /// in Cilk's serial depth-first order. Normally managed by
  /// race::Replay's RAII, not called directly.
  void set_exec_hook(race::ExecHook* h) noexcept {
    exec_hook_.store(h, std::memory_order_release);
  }
  [[nodiscard]] race::ExecHook* exec_hook() const noexcept {
    return exec_hook_.load(std::memory_order_acquire);
  }
#endif

 private:
  friend class Worker;
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  /// `w` is the spawning worker when it belongs to this scheduler (saves
  /// a second TLS lookup on the hot path), nullptr for external callers.
  void enqueue(TaskBase* task, Worker* w);
  void execute(TaskBase* task) noexcept;
  TaskBase* try_pop_inbox();
  void count_heap_spawn(Worker* w) noexcept {
    if (w != nullptr) {
      ++w->stats_.heap_spawns;
    } else {
      external_spawns_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  Config cfg_;
  Topology topology_;  // immutable after construction; read by all workers
  ProgramId pid_ = kNoProgram;
  CoreTable* table_ = nullptr;               // shared or owned_table_'s
  std::unique_ptr<CoreTableLocal> owned_table_;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<Coordinator> coordinator_;

  // Injection inbox for external submissions (run() from the main
  // thread): an intrusive FIFO through TaskBase::inbox_next, so the cold
  // path allocates nothing beyond the task itself. Line-isolated as one
  // sharing domain: submitters and draining workers write these together,
  // and none of it should ping-pong with total_pending_ below.
  alignas(layout::kCacheLineBytes) DWS_SHARED std::mutex inbox_m_;
  DWS_SHARED TaskBase* inbox_head_ = nullptr;  // guarded by inbox_m_
  DWS_SHARED TaskBase* inbox_tail_ = nullptr;  // guarded by inbox_m_
  DWS_SHARED std::atomic<std::size_t> inbox_size_{0};
  DWS_SHARED std::atomic<std::uint64_t> external_spawns_{0};

  // Unfinished-task count: in the non-sleeping modes a worker blocks on
  // its sleep word while this reads 0, and the 0 -> 1 edge wakes it.
  // Bumped by every spawn and completion from every worker — the
  // scheduler's hottest multi-writer word, alone on its line.
  alignas(layout::kCacheLineBytes) DWS_SHARED
      std::atomic<std::int64_t> total_pending_{0};

  // Workers past the sleep handshake and blocked, or about to block: a
  // hint for the backlog watch's arm (a stale read costs at most one
  // period's delay, as before the watch existed). Written on every sleep
  // and wake, read on every push edge, so it gets its own line.
  alignas(layout::kCacheLineBytes) DWS_SHARED std::atomic<unsigned> sleepers_{
      0};

#ifndef DWS_RACE_DISABLED
  // Written only while quiescent, read on every spawn and wait: kept off
  // the counters' lines above so their writes do not invalidate it.
  alignas(layout::kCacheLineBytes) DWS_SHARED
      std::atomic<race::ExecHook*> exec_hook_{nullptr};
#endif
};

}  // namespace dws::rt

// Task representation for the DWS runtime: a type-erased closure plus the
// bookkeeping hooks the scheduler needs (per-group join counting,
// exception propagation). Task storage is pooled on the hot path: a task
// whose closure fits a TaskSlabPool slot is placement-constructed into
// per-worker recycled storage (see task_pool.hpp); oversized closures and
// external-thread spawns fall back to plain new/delete. Recycling never
// leaks state between occupants — a slot is reused only through a fresh
// placement-new, so the race token, lineage, and links below start from
// their constructed defaults every time.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/atomics_policy.hpp"
#include "runtime/race_hook.hpp"
#include "runtime/strict.hpp"
#include "runtime/task_pool.hpp"
#include "util/layout.hpp"

namespace dws::rt {

class TaskGroup;

/// Type-erased unit of work. Owned by the deque/scheduler from push until
/// execution; `run_and_destroy` is the single consumption point for tasks
/// that run, `destroy` for tasks discarded without running.
class TaskBase {
 public:
  explicit TaskBase(TaskGroup* group) : group_(group) {
    // Spawn-tree position, captured while the ancestor chain is alive
    // (the spawning frame may return before this task runs). Stays empty
    // — and costs one enabled() load — when strictness is off.
    if (strict::enabled()) strict::capture_lineage(lineage_);
  }
  TaskBase(const TaskBase&) = delete;
  TaskBase& operator=(const TaskBase&) = delete;
  virtual ~TaskBase() = default;

  /// Execute the payload, complete the group, destroy `this`.
  void run_and_destroy() noexcept;

  /// Destroy without running: virtual-destruct, then return the storage
  /// to wherever it came from (home pool slot, or the heap for tasks
  /// built with plain new — tests and fallback paths construct those
  /// directly and never call set_pool_slot).
  void destroy() noexcept {
    void* slot = pool_slot_;
    if (slot == nullptr) {
      delete this;
      return;
    }
    this->~TaskBase();
    TaskSlabPool::release(slot);
  }

  [[nodiscard]] TaskGroup* group() const noexcept { return group_; }

  /// Mark this task as living in pooled storage. Called by the scheduler
  /// right after placement-construction; never touched again until
  /// destroy()/run_and_destroy() release the slot.
  void set_pool_slot(TaskSlabPool::Slot* slot) noexcept { pool_slot_ = slot; }

  // Intrusive injection-inbox link (guarded by the scheduler's inbox
  // mutex), so external submission needs no container allocation.
  [[nodiscard]] TaskBase* inbox_next() const noexcept { return inbox_next_; }
  void set_inbox_next(TaskBase* n) noexcept { inbox_next_ = n; }

#ifndef DWS_RACE_DISABLED
  /// Opaque happens-before token from race::ParallelHook::on_task_published
  /// (FastTrack mode). Set by Scheduler::spawn before the task becomes
  /// stealable; consumed by run_and_destroy around the body. Recycled
  /// slots cannot inherit a stale token: every occupancy is a fresh
  /// placement-new, which resets this to nullptr.
  void set_race_token(void* token) noexcept { race_token_ = token; }
#endif

 protected:
  virtual void execute() = 0;

 private:
  TaskGroup* group_;
  strict::Lineage lineage_;  // empty unless strictness was on at spawn
  void* pool_slot_ = nullptr;     // TaskSlabPool::Slot*, or null for heap
  TaskBase* inbox_next_ = nullptr;
#ifndef DWS_RACE_DISABLED
  void* race_token_ = nullptr;
#endif
};

template <typename F>
class TaskImpl final : public TaskBase {
 public:
  // A template of its own, so `fn` binds an lvalue (copied) as well as an
  // rvalue (moved): `F` is the decayed closure type.
  template <typename G>
  TaskImpl(TaskGroup* group, G&& fn)
      : TaskBase(group), fn_(std::forward<G>(fn)) {}

 protected:
  void execute() override { fn_(); }

 private:
  F fn_;
};

template <typename G>
TaskImpl(TaskGroup*, G&&) -> TaskImpl<std::decay_t<G>>;

/// A group's join as one word: the pending count above a "waiter parked"
/// bit. A completion is one fetch_sub; only the last one, if a waiter
/// parked, wakes the word's address, which is a syscall on a number even
/// once the waiter has destroyed the group. tests/test_check_join.cpp
/// model-checks this template; nothing here is noexcept, as the checker
/// unwinds from atomic operations.
template <typename Policy = StdAtomicsPolicy>
class JoinWord {
 public:
  [[nodiscard]] bool done() const { return load() < kOne; }
  [[nodiscard]] std::uint32_t pending() const { return load() / kOne; }
  /// The add that would overflow the count's 31 bits is undone and throws.
  void add() {
    if (word_.fetch_add(kOne, std::memory_order_relaxed) / kOne == kMax) {
      word_.fetch_sub(kOne, std::memory_order_relaxed);
      throw std::length_error("TaskGroup: more than 2^31 - 1 pending tasks");
    }
  }
  void complete_one() {
    if (word_.fetch_sub(kOne, std::memory_order_acq_rel) == (kOne | kParked)) {
      Policy::wake(word_);
    }
  }
  /// Block until the count is zero.
  void wait() {
    for (std::uint32_t w = park(); w != 0; w = park()) Policy::wait(word_, w);
  }
  /// Park once, until a wake or `deadline`; it may return early.
  void wait_until(std::chrono::steady_clock::time_point deadline) {
    if (const auto w = park(); w != 0) Policy::wait_until(word_, w, deadline);
  }

 private:
  static constexpr std::uint32_t kParked = 1, kOne = 2, kMax = ~0u / kOne;

  std::uint32_t load() const { return word_.load(std::memory_order_acquire); }
  // Set the parked bit, which stays set for the group's life; returns the
  // word to sleep on, or 0 once the count is zero.
  std::uint32_t park() {
    std::uint32_t w = load();
    if (w >= kOne && (w & kParked) == 0) {
      w = word_.fetch_or(kParked, std::memory_order_acquire) | kParked;
    }
    return w >= kOne ? w : 0;
  }

  DWS_SHARED typename Policy::template atomic<std::uint32_t> word_{0};
};

/// Join counter for a set of spawned tasks (TBB task_group-style): spawns
/// add to its JoinWord and completions take from it. wait() is implemented
/// by the scheduler (help-first: the waiter executes and steals tasks until
/// the counter drains). The first exception thrown by any task in the
/// group is captured and rethrown from wait().
class TaskGroup {
 public:
  TaskGroup() {
    // Strictness validation is armed per group at construction time: a
    // creator tag of 0 (enforcement off) short-circuits every later hook
    // to a single member load. The creating frame's lineage (empty for a
    // non-task frame) scopes the wait check to the spawn tree.
    if (strict::enabled()) {
      creator_tag_ = strict::thread_tag();
      if (const strict::Lineage* cur = strict::current_lineage();
          cur != nullptr) {
        creator_lineage_ = *cur;
      }
    }
  }
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  ~TaskGroup() {
    if (creator_tag_ != 0 && !join_.done()) {
      strict::report(strict::Violation::kEscapedGroup,
                     "TaskGroup destroyed with tasks still pending — the "
                     "group escaped its creating scope (completers will "
                     "touch freed memory)");
    }
  }

  [[nodiscard]] bool done() const noexcept { return join_.done(); }
  void add_pending() { join_.add(); }
  /// Called exactly once per task (from run_and_destroy), after its last
  /// other access to this group.
  void complete_one() noexcept { join_.complete_one(); }
  /// The word a waiter blocks on (Scheduler::wait).
  [[nodiscard]] JoinWord<>& join() noexcept { return join_; }

  /// Record the first exception thrown by a task of this group.
  void capture_exception(std::exception_ptr e) noexcept {
    bool expected = false;
    if (has_exception_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      exception_ = std::move(e);
    }
  }

  /// Rethrow a captured exception, if any. Call only after done().
  void rethrow_if_exception() {
    if (has_exception_.load(std::memory_order_acquire) && exception_) {
      std::exception_ptr e = std::exception_ptr(exception_);
      exception_ = nullptr;
      has_exception_.store(false, std::memory_order_release);
      std::rethrow_exception(e);
    }
  }

  // ---- Strictness hooks (called by the Scheduler; no-ops unless the
  // group was constructed with enforcement enabled) ----

  /// Before a spawn is accounted into this group.
  void strict_on_spawn() noexcept {
    if (creator_tag_ == 0) return;
    if (waited_.load(std::memory_order_acquire)) {
      if (strict::thread_tag() == creator_tag_) {
        // Sanctioned reuse: the creator starts a new spawn/wait round.
        waited_.store(false, std::memory_order_release);
      } else {
        strict::report(strict::Violation::kSpawnAfterCompletion,
                       "spawn into a TaskGroup whose wait() already "
                       "returned, from a thread that is not the group's "
                       "creator — nothing will ever join this task");
      }
    }
  }

  /// At the top of Scheduler::wait on this group. Task identity is the
  /// primary check: when both the creating frame and the waiting frame
  /// are tasks, their spawn-tree positions decide — thread identity is
  /// coincidental under work stealing (an ancestor can wind up on the
  /// creator's worker, a legitimate creator-wait can replay on any
  /// thread). Thread tags remain the fallback when either side is a
  /// non-task frame.
  void strict_on_wait() noexcept {
    if (creator_tag_ == 0) return;
    const strict::Lineage* waiter = strict::current_lineage();
    if (!creator_lineage_.empty() && waiter != nullptr && !waiter->empty()) {
      const std::uint64_t waiter_id = waiter->back();
      if (waiter_id == creator_lineage_.back()) return;  // creator waits
      for (const std::uint64_t ancestor : creator_lineage_) {
        if (ancestor == waiter_id) {
          strict::report(
              strict::Violation::kAncestorWait,
              "wait() on a TaskGroup created by a spawn-tree descendant "
              "of the waiting task — the group escaped upward out of its "
              "creating frame, so the join is not fully strict");
          return;
        }
      }
      strict::report(strict::Violation::kForeignWait,
                     "wait() on a TaskGroup from a task that is neither "
                     "the group's creator nor one of its ancestors — "
                     "joins must be fully strict (creator waits for its "
                     "own children)");
      return;
    }
    if (strict::thread_tag() != creator_tag_) {
      strict::report(strict::Violation::kForeignWait,
                     "wait() on a TaskGroup the waiting thread did not "
                     "create — joins must be fully strict (creator waits "
                     "for its own children)");
    }
  }

  /// After Scheduler::wait observed the group drained.
  void strict_on_wait_done() noexcept {
    if (creator_tag_ == 0) return;
    waited_.store(true, std::memory_order_release);
  }

 private:
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  // All hot words here form ONE sharing domain — the join protocol:
  // spawners add to join_, completers take from it and wake through it,
  // the creator writes waited_. A TaskGroup lives on the waiting frame's
  // stack for one join, so striding its words would buy nothing: the same
  // threads touch all of them back to back.
  DWS_SHARED JoinWord<> join_;
  std::uintptr_t creator_tag_ = 0;  // 0 == strictness unarmed
  strict::Lineage creator_lineage_;  // empty for non-task creator frames
  DWS_SHARED std::atomic<bool> waited_{false};
  DWS_SHARED std::atomic<bool> has_exception_{false};
  std::exception_ptr exception_;
};

inline void TaskBase::run_and_destroy() noexcept {
  TaskGroup* g = group_;
  // Publish this task's lineage for the duration of execute() so groups
  // it creates and waits it performs are attributed to this spawn-tree
  // frame. Restored before complete_one()/delete: the lineage vector
  // lives in this task, and a waiter may destroy state as soon as the
  // group drains.
  const bool framed = !lineage_.empty();
  const strict::Lineage* prev =
      framed ? strict::swap_current_lineage(&lineage_) : nullptr;
#ifndef DWS_RACE_DISABLED
  // FastTrack edges: the token carries the spawn-site clock; begin makes
  // it this thread's frame (and installs the per-thread sink), end
  // publishes the frame into the group's join clock *before*
  // complete_one can release a waiter. The hook is loaded once so the
  // begin/end pair always goes to the same detector.
  race::ParallelHook* ph =
      race_token_ != nullptr
          ? race::detail::parallel_hook().load(std::memory_order_acquire)
          : nullptr;
  if (ph != nullptr) ph->on_task_begin(race_token_);
#endif
  try {
    execute();
  } catch (...) {
    if (g != nullptr) g->capture_exception(std::current_exception());
  }
#ifndef DWS_RACE_DISABLED
  if (ph != nullptr) ph->on_task_end(race_token_, g);
#endif
  if (framed) strict::swap_current_lineage(prev);
  if (g != nullptr) g->complete_one();
  destroy();
}

}  // namespace dws::rt

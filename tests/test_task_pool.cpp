// Tests for the pooled task storage on the spawn hot path: TaskPool slab
// carving and LIFO recycling, remote (cross-thread) frees, the TaskBase
// destroy() routing between pool slots and the heap, scheduler-level
// allocation accounting (the zero-alloc steady-state claim behind
// BENCH_spawn_steal.json), and — in race-enabled builds — the FastTrack
// token regression: a recycled slot must never hand a consumer its
// previous occupant's happens-before token.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task.hpp"
#include "runtime/task_pool.hpp"

namespace dws {
namespace {

TEST(TaskPool, LifoRecycleReturnsHottestSlot) {
  rt::TaskSlabPool pool;
  pool.bind_owner();
  auto* a = pool.allocate();
  auto* b = pool.allocate();
  ASSERT_NE(a, b);
  rt::TaskSlabPool::release(b);
  rt::TaskSlabPool::release(a);
  // Most recently freed comes back first: its lines are still warm.
  EXPECT_EQ(pool.allocate(), a);
  EXPECT_EQ(pool.allocate(), b);
}

TEST(TaskPool, SlabCarvingStopsAtTheHighWaterMark) {
  // 4-slot slabs so the carve boundary is near.
  rt::TaskPool<64, 4> pool;
  pool.bind_owner();
  std::vector<rt::TaskPool<64, 4>::Slot*> slots;
  for (int i = 0; i < 4; ++i) slots.push_back(pool.allocate());
  EXPECT_EQ(pool.stats().slab_allocs, 1u);
  slots.push_back(pool.allocate());  // 5th slot forces a second slab
  EXPECT_EQ(pool.stats().slab_allocs, 2u);

  const std::set<void*> original(slots.begin(), slots.end());
  EXPECT_EQ(original.size(), 5u);
  for (auto* s : slots) rt::TaskPool<64, 4>::release(s);

  // Steady state: reallocation at the high-water mark is pure recycling.
  for (int round = 0; round < 10; ++round) {
    std::vector<rt::TaskPool<64, 4>::Slot*> again;
    for (int i = 0; i < 5; ++i) again.push_back(pool.allocate());
    for (auto* s : again) {
      EXPECT_TRUE(original.count(s)) << "slot did not come from the pool";
      rt::TaskPool<64, 4>::release(s);
    }
  }
  EXPECT_EQ(pool.stats().slab_allocs, 2u);
  EXPECT_EQ(pool.stats().slot_allocs, 55u);
  EXPECT_EQ(pool.stats().local_frees, 55u);
}

TEST(TaskPool, RemoteFreeDrainsOnOwnerAllocate) {
  rt::TaskPool<64, 2> pool;
  pool.bind_owner();
  auto* a = pool.allocate();
  auto* b = pool.allocate();  // slab 0 fully handed out, freelist dry

  std::thread other([a] { rt::TaskPool<64, 2>::release(a); });
  other.join();
  EXPECT_EQ(pool.stats().remote_frees, 1u);
  EXPECT_EQ(pool.stats().local_frees, 0u);

  // The owner's next allocate adopts the remote chain instead of carving.
  EXPECT_EQ(pool.allocate(), a);
  EXPECT_EQ(pool.stats().remote_drains, 1u);
  EXPECT_EQ(pool.stats().slab_allocs, 1u);
  rt::TaskPool<64, 2>::release(a);
  rt::TaskPool<64, 2>::release(b);
}

TEST(TaskPool, RemoteFreesFromManyThreadsAllRecovered) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  rt::TaskPool<64, 8> pool;
  pool.bind_owner();
  std::vector<rt::TaskPool<64, 8>::Slot*> slots;
  for (int i = 0; i < kThreads * kPerThread; ++i)
    slots.push_back(pool.allocate());
  const std::set<void*> original(slots.begin(), slots.end());

  // Racing Treiber pushes onto the remote chain.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&slots, t] {
      for (int i = 0; i < kPerThread; ++i)
        rt::TaskPool<64, 8>::release(slots[t * kPerThread + i]);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(pool.stats().remote_frees,
            static_cast<std::uint64_t>(kThreads * kPerThread));

  const std::uint64_t slabs = pool.stats().slab_allocs;
  std::set<void*> recovered;
  for (int i = 0; i < kThreads * kPerThread; ++i)
    recovered.insert(pool.allocate());
  EXPECT_EQ(recovered, original) << "remote chain lost or invented slots";
  EXPECT_EQ(pool.stats().slab_allocs, slabs) << "recovery carved a slab";
}

TEST(TaskPool, FitsRespectsSizeAndAlignment) {
  struct Small {
    char b[32];
  };
  struct Big {
    char b[4096];
  };
  struct alignas(128) OverAligned {
    char b[32];
  };
  EXPECT_TRUE(rt::TaskSlabPool::fits<Small>());
  EXPECT_FALSE(rt::TaskSlabPool::fits<Big>());
  EXPECT_FALSE(rt::TaskSlabPool::fits<OverAligned>());
}

TEST(TaskPool, PooledTaskDestroyWithoutRunningReleasesSlot) {
  rt::TaskSlabPool pool;
  pool.bind_owner();
  auto* slot = pool.allocate();

  bool ran = false;
  auto fn = [&ran] { ran = true; };
  using Task = rt::TaskImpl<decltype(fn)>;
  static_assert(rt::TaskSlabPool::fits<Task>());
  rt::TaskBase* t =
      new (rt::TaskSlabPool::storage(slot)) Task(nullptr, std::move(fn));
  t->set_pool_slot(slot);
  t->destroy();  // scheduler-teardown path: discard without executing
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.stats().local_frees, 1u);
  EXPECT_EQ(pool.allocate(), slot);
}

TEST(TaskPool, PooledTaskRunAndDestroyCompletesGroupAndRecycles) {
  rt::TaskSlabPool pool;
  pool.bind_owner();
  auto* slot = pool.allocate();

  rt::TaskGroup g;
  g.add_pending();
  int runs = 0;
  auto fn = [&runs] { ++runs; };
  using Task = rt::TaskImpl<decltype(fn)>;
  static_assert(rt::TaskSlabPool::fits<Task>());
  rt::TaskBase* t =
      new (rt::TaskSlabPool::storage(slot)) Task(&g, std::move(fn));
  t->set_pool_slot(slot);
  t->run_and_destroy();
  EXPECT_EQ(runs, 1);
  EXPECT_TRUE(g.done());
  EXPECT_EQ(pool.stats().local_frees, 1u);
  EXPECT_EQ(pool.allocate(), slot);
}

TEST(TaskPool, HeapTaskDestroyStillDeletes) {
  // Plain-new tasks (oversized closures, external spawns, direct test
  // construction) never set a pool slot; destroy() must delete them.
  bool ran = false;
  auto fn = [&ran] { ran = true; };
  rt::TaskBase* t = new rt::TaskImpl<decltype(fn)>(nullptr, std::move(fn));
  t->destroy();  // must not leak (ASan/LSan would flag it) nor run
  EXPECT_FALSE(ran);
}

// ---------------------------------------------------------------------
// Scheduler-level allocation accounting.
// ---------------------------------------------------------------------

Config pool_config() {
  Config cfg;
  cfg.mode = SchedMode::kDws;
  cfg.num_cores = 2;
  cfg.pin_threads = false;
  return cfg;
}

/// One spawn-heavy round: a root task (external, heap) spawns `n` empty
/// tasks from its worker and waits for them.
void burst(rt::Scheduler& sched, int n) {
  sched.run([&sched, n] {
    rt::TaskGroup g;
    for (int i = 0; i < n; ++i) sched.spawn(g, [] {});
    sched.wait(g);
  });
}

TEST(SchedulerAllocStats, WorkerSpawnsArePooledWithZeroSteadyStateAllocs) {
  constexpr int kRounds = 8;
  constexpr int kTasks = 60;  // below one slab, so high-water fits slab 0
  rt::Scheduler sched(pool_config());
  for (int r = 0; r < kRounds; ++r) burst(sched, kTasks);

  // A task releases its slot *after* signalling its group, so the last
  // frees can trail the final wait() by an instant; settle first.
  rt::TaskAllocStats a = sched.alloc_stats();
  for (int i = 0;
       i < 1000 && a.local_frees + a.remote_frees != a.pooled_spawns; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    a = sched.alloc_stats();
  }
  EXPECT_EQ(a.pooled_spawns,
            static_cast<std::uint64_t>(kRounds) * kTasks);
  EXPECT_EQ(a.heap_spawns, 0u);
  EXPECT_EQ(a.external_spawns, static_cast<std::uint64_t>(kRounds));
  // At most 60 slots are ever live per spawning pool, so no pool needs a
  // second slab — 480 pooled spawns cost at most one heap allocation per
  // worker, total, ever.
  EXPECT_LE(a.slab_allocs, static_cast<std::uint64_t>(sched.num_workers()));
  EXPECT_GE(a.slab_allocs, 1u);
  // Quiescent: every pooled slot went back (locally or via a thief).
  EXPECT_EQ(a.local_frees + a.remote_frees, a.pooled_spawns);
}

TEST(SchedulerAllocStats, OversizedClosuresFallBackToTheHeap) {
  rt::Scheduler sched(pool_config());
  sched.run([&sched] {
    rt::TaskGroup g;
    struct Fat {
      char pad[512] = {};
    };
    Fat fat;
    sched.spawn(g, [fat] { (void)fat; });  // closure exceeds SlotBytes
    sched.spawn(g, [] {});                 // small: pooled
    sched.wait(g);
  });
  const rt::TaskAllocStats a = sched.alloc_stats();
  EXPECT_EQ(a.heap_spawns, 1u);
  EXPECT_EQ(a.pooled_spawns, 1u);
}

#ifndef DWS_RACE_DISABLED

// ---------------------------------------------------------------------
// FastTrack token lifecycle across slot recycling (satellite of the
// pooled-storage change): every token a consumer hands back to the hook
// must be one the *current* session published, exactly once. Sessions use
// disjoint token ranges, so a recycled slot leaking its previous
// occupant's token — or a stale token surviving an uninstalled session —
// shows up as a foreign begin.
// ---------------------------------------------------------------------

class TokenAudit : public race::ParallelHook {
 public:
  void* on_task_published(rt::TaskGroup&) override {
    const std::uintptr_t t =
        next_token_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(m_);
    published_.insert(t);
    return reinterpret_cast<void*>(t);
  }
  void on_task_begin(void* token) override {
    const auto t = reinterpret_cast<std::uintptr_t>(token);
    std::lock_guard<std::mutex> lock(m_);
    if (published_.count(t) == 0) ++foreign_begins_;
    if (!begun_.insert(t).second) ++duplicate_begins_;
  }
  void on_task_end(void* token, rt::TaskGroup*) override {
    const auto t = reinterpret_cast<std::uintptr_t>(token);
    std::lock_guard<std::mutex> lock(m_);
    ended_.insert(t);
  }
  void on_wait_done(rt::TaskGroup&) override {}

  [[nodiscard]] std::size_t published() const { return published_.size(); }
  [[nodiscard]] std::size_t begun() const { return begun_.size(); }
  [[nodiscard]] std::size_t ended() const { return ended_.size(); }
  [[nodiscard]] int foreign_begins() const { return foreign_begins_; }
  [[nodiscard]] int duplicate_begins() const { return duplicate_begins_; }

 private:
  // Process-wide counter: successive audit sessions draw from disjoint
  // token ranges (never 0 — a null token means "no hook" to the task).
  inline static std::atomic<std::uintptr_t> next_token_{1};

  mutable std::mutex m_;
  std::set<std::uintptr_t> published_;
  std::set<std::uintptr_t> begun_;
  std::set<std::uintptr_t> ended_;
  int foreign_begins_ = 0;
  int duplicate_begins_ = 0;
};

TEST(TaskPoolRaceToken, RecycledSlotsDoNotInheritTokens) {
  constexpr int kTasks = 128;
  rt::Scheduler sched(pool_config());

  auto audited_burst = [&](TokenAudit& audit) {
    race::detail::parallel_hook().store(&audit, std::memory_order_release);
    burst(sched, kTasks);
    // Quiescent (every group waited) before uninstall, so no callback
    // can arrive after the store.
    race::detail::parallel_hook().store(nullptr, std::memory_order_release);
  };

  TokenAudit first;
  audited_burst(first);
  // kTasks children + the external root task all carried tokens.
  EXPECT_EQ(first.published(), static_cast<std::size_t>(kTasks) + 1);
  EXPECT_EQ(first.begun(), first.published());
  EXPECT_EQ(first.ended(), first.published());
  EXPECT_EQ(first.foreign_begins(), 0);
  EXPECT_EQ(first.duplicate_begins(), 0);

  // Interlude with no hook installed, churning the same slots: these
  // occupancies must scrub any token state (placement-new resets it).
  for (int r = 0; r < 4; ++r) burst(sched, kTasks);

  TokenAudit second;
  audited_burst(second);
  EXPECT_EQ(second.published(), static_cast<std::size_t>(kTasks) + 1);
  EXPECT_EQ(second.begun(), second.published());
  EXPECT_EQ(second.ended(), second.published());
  // The regression: a recycled slot inheriting a session-one token would
  // hand the hook a token outside session two's published set.
  EXPECT_EQ(second.foreign_begins(), 0);
  EXPECT_EQ(second.duplicate_begins(), 0);
}

#endif  // DWS_RACE_DISABLED

}  // namespace
}  // namespace dws

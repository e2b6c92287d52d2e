// Integration tests for the threads runtime: correctness of spawn/wait
// under every scheduling mode, the parallel algorithms, exception
// propagation, and the DWS sleep/wake lifecycle of a single program.
//
// Note: the CI host may have a single hardware core; these tests validate
// functional correctness (which is core-count independent), not speedup.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace dws::rt {
namespace {

using namespace std::chrono_literals;

Config make_config(SchedMode mode, unsigned cores, unsigned programs = 1) {
  Config cfg;
  cfg.mode = mode;
  cfg.num_cores = cores;
  cfg.num_programs = programs;
  cfg.pin_threads = false;  // the CI host may have fewer cores than k
  cfg.coordinator_period_ms = 2.0;
  return cfg;
}

/// Spin until `pred` holds or `timeout` elapses; returns pred().
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 3000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

std::uint64_t parallel_fib(Scheduler& sched, unsigned n) {
  if (n < 2) return n;
  std::uint64_t a = 0, b = 0;
  TaskGroup g;
  sched.spawn(g, [&sched, &a, n] { a = parallel_fib(sched, n - 1); });
  b = parallel_fib(sched, n - 2);
  sched.wait(g);
  return a + b;
}

class SchedulerModes : public ::testing::TestWithParam<SchedMode> {};

TEST_P(SchedulerModes, RunsASingleTask) {
  Scheduler sched(make_config(GetParam(), 4));
  std::atomic<int> x{0};
  sched.run([&] { x = 42; });
  EXPECT_EQ(x.load(), 42);
}

TEST_P(SchedulerModes, FibIsCorrect) {
  Scheduler sched(make_config(GetParam(), 4));
  std::uint64_t result = 0;
  sched.run([&] { result = parallel_fib(sched, 16); });
  EXPECT_EQ(result, 987u);
}

TEST_P(SchedulerModes, ParallelForCoversEveryIndexOnce) {
  Scheduler sched(make_config(GetParam(), 4));
  constexpr std::int64_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(sched, 0, n, 64, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (std::int64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST_P(SchedulerModes, ParallelReduceSumsCorrectly) {
  Scheduler sched(make_config(GetParam(), 4));
  constexpr std::int64_t n = 100000;
  const auto sum = parallel_reduce<std::int64_t>(
      sched, 0, n, 512, 0,
      [](std::int64_t b, std::int64_t e) {
        std::int64_t s = 0;
        for (std::int64_t i = b; i < e; ++i) s += i;
        return s;
      },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST_P(SchedulerModes, SequentialRunsReuseTheScheduler) {
  Scheduler sched(make_config(GetParam(), 2));
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> count{0};
    parallel_for_each_index(sched, 0, 100, 10,
                            [&](std::int64_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 100) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, SchedulerModes,
                         ::testing::Values(SchedMode::kClassic, SchedMode::kAbp,
                                           SchedMode::kEp, SchedMode::kDws,
                                           SchedMode::kDwsNc, SchedMode::kBws),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(SchedulerApi, ParallelInvokeRunsAllBranches) {
  Scheduler sched(make_config(SchedMode::kDws, 4));
  std::atomic<int> mask{0};
  parallel_invoke(
      sched, [&] { mask.fetch_or(1); }, [&] { mask.fetch_or(2); },
      [&] { mask.fetch_or(4); }, [&] { mask.fetch_or(8); });
  EXPECT_EQ(mask.load(), 15);
}

TEST(SchedulerApi, EmptyAndTinyRangesWork) {
  Scheduler sched(make_config(SchedMode::kDws, 2));
  std::atomic<int> count{0};
  parallel_for(sched, 5, 5, 8, [&](std::int64_t, std::int64_t) {
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 0);
  parallel_for(sched, 0, 1, 8, [&](std::int64_t b, std::int64_t e) {
    count.fetch_add(static_cast<int>(e - b));
  });
  EXPECT_EQ(count.load(), 1);
}

TEST(SchedulerApi, NestedParallelForIsCorrect) {
  Scheduler sched(make_config(SchedMode::kDws, 4));
  constexpr std::int64_t n = 64;
  std::vector<std::atomic<int>> hits(n * n);
  sched.run([&] {
    parallel_for(sched, 0, n, 4, [&](std::int64_t rb, std::int64_t re) {
      for (std::int64_t r = rb; r < re; ++r) {
        parallel_for(sched, 0, n, 8, [&, r](std::int64_t cb, std::int64_t ce) {
          for (std::int64_t c = cb; c < ce; ++c) hits[r * n + c].fetch_add(1);
        });
      }
    });
  });
  for (std::int64_t i = 0; i < n * n; ++i) ASSERT_EQ(hits[i].load(), 1);
}

TEST(SchedulerApi, TaskExceptionPropagatesToWaiter) {
  Scheduler sched(make_config(SchedMode::kAbp, 2));
  EXPECT_THROW(sched.run([&] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The scheduler remains usable afterwards.
  std::atomic<int> x{0};
  sched.run([&] { x = 7; });
  EXPECT_EQ(x.load(), 7);
}

TEST(SchedulerApi, ExceptionFromSpawnedChildPropagates) {
  Scheduler sched(make_config(SchedMode::kDws, 4));
  EXPECT_THROW(
      parallel_for_each_index(sched, 0, 100, 1,
                              [&](std::int64_t i) {
                                if (i == 37) throw std::logic_error("i=37");
                              }),
      std::logic_error);
}

TEST(SchedulerApi, ManyConcurrentGroups) {
  Scheduler sched(make_config(SchedMode::kDws, 4));
  std::atomic<int> total{0};
  sched.run([&] {
    TaskGroup g1, g2;
    for (int i = 0; i < 50; ++i) {
      sched.spawn(g1, [&] { total.fetch_add(1); });
      sched.spawn(g2, [&] { total.fetch_add(10); });
    }
    sched.wait(g1);
    sched.wait(g2);
  });
  EXPECT_EQ(total.load(), 50 + 500);
}

// ---- Mode-specific behaviour ----

TEST(SchedulerEp, NonHomeWorkersArePermanentlyParked) {
  // One EP program declared among 2: it may only ever use its 2 home
  // cores out of 4.
  Scheduler sched(make_config(SchedMode::kEp, 4, 2));
  ASSERT_TRUE(eventually([&] {
    unsigned parked = 0;
    for (unsigned i = 0; i < 4; ++i) {
      if (sched.worker_at(i).state() == Worker::State::kParked) ++parked;
    }
    return parked == 2;
  }));
  // Work still completes on the remaining home workers.
  std::atomic<int> count{0};
  parallel_for_each_index(sched, 0, 1000, 10,
                          [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 1000);
  // And the parked workers never executed anything.
  const auto stats = sched.stats();
  for (unsigned i = 0; i < 4; ++i) {
    if (sched.worker_at(i).state() == Worker::State::kParked) {
      EXPECT_EQ(stats.per_worker[i].tasks_executed, 0u);
    }
  }
}

TEST(SchedulerDws, IdleProgramReleasesAllCores) {
  Scheduler sched(make_config(SchedMode::kDws, 4, 1));
  // With no work, every worker fails T_SLEEP steals and releases its core.
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == 4; }));
  EXPECT_EQ(sched.table()->count_free(), 4u);
  EXPECT_EQ(sched.active_workers(), 0u);
}

TEST(SchedulerDws, WakesUpForNewWorkAfterFullSleep) {
  Scheduler sched(make_config(SchedMode::kDws, 4, 1));
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == 4; }));
  // Submitting from the outside must revive the program.
  std::atomic<int> count{0};
  parallel_for_each_index(sched, 0, 500, 5,
                          [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 500);
  EXPECT_GT(sched.stats().totals.sleeps, 0u);
  // The coordinator counts a wake after the worker is already running, so
  // a reader can see the work done before the wake is counted.
  EXPECT_TRUE(
      eventually([&] { return sched.stats().coordinator_wakes > 0; }));
}

TEST(SchedulerDws, SecondProgramSlotStartsAsleep) {
  // Declared m=2 but only this program exists: its home half runs, the
  // other half's workers must park (their cores are unowned), and the
  // coordinator may later claim the free half under load.
  Scheduler sched(make_config(SchedMode::kDws, 4, 2));
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() >= 2; }));
  // Sustained load lets the coordinator claim the free non-home cores.
  std::atomic<std::int64_t> sum{0};
  parallel_for_each_index(sched, 0, 200000, 16, [&](std::int64_t i) {
    sum.fetch_add(i % 7, std::memory_order_relaxed);
  });
  const auto stats = sched.stats();
  EXPECT_GT(stats.cores_claimed, 0u)
      << "coordinator should have claimed free non-home cores under load";
}

TEST(SchedulerDwsNc, SleepsAndWakesWithoutATable) {
  Scheduler sched(make_config(SchedMode::kDwsNc, 4));
  EXPECT_EQ(sched.table(), nullptr);
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == 4; }));
  std::atomic<int> count{0};
  parallel_for_each_index(sched, 0, 500, 5,
                          [&](std::int64_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 500);
}

TEST(SchedulerClassic, NoYieldsNoSleeps) {
  Scheduler sched(make_config(SchedMode::kClassic, 2));
  sched.run([&] { (void)parallel_fib(sched, 12); });
  const auto stats = sched.stats();
  EXPECT_EQ(stats.totals.yields, 0u);
  EXPECT_EQ(stats.totals.sleeps, 0u);
  EXPECT_EQ(stats.coordinator_ticks, 0u);  // no coordinator at all
}

TEST(SchedulerAbp, YieldsButNeverSleeps) {
  Scheduler sched(make_config(SchedMode::kAbp, 4));
  sched.run([&] { (void)parallel_fib(sched, 14); });
  const auto stats = sched.stats();
  EXPECT_EQ(stats.totals.sleeps, 0u);
}

TEST(SchedulerStats, CountsTasksExactly) {
  Scheduler sched(make_config(SchedMode::kDws, 4));
  constexpr int kTasks = 300;
  std::atomic<int> count{0};
  sched.run([&] {
    TaskGroup g;
    for (int i = 0; i < kTasks; ++i) {
      sched.spawn(g, [&] { count.fetch_add(1); });
    }
    sched.wait(g);
  });
  EXPECT_EQ(count.load(), kTasks);
  // kTasks spawned + 1 root.
  EXPECT_EQ(sched.stats().totals.tasks_executed,
            static_cast<std::uint64_t>(kTasks) + 1);
}

// Regression for the RelaxedCounter copy path: the counter's copy
// constructor/assignment must be an explicit relaxed load/store pair. A
// defaulted copy would be a plain 64-bit read racing the owner's
// fetch_add — undefined behaviour, a TSan report, and a possible torn
// value on 32-bit targets. The observable contract of an atomic snapshot
// of a monotonic counter is monotonicity: successive copies never go
// backwards and never exceed the owner's final quiesced total.
TEST(SchedulerStats, RelaxedCounterCopiesFromLiveOwnerAreMonotonic) {
  RelaxedCounter counter;
  std::atomic<bool> stop{false};
  constexpr std::uint64_t kBumps = 200000;
  std::thread owner([&] {
    for (std::uint64_t i = 0; i < kBumps && !stop.load(); ++i) ++counter;
  });
  std::uint64_t last = 0;
  for (int i = 0; i < 5000; ++i) {
    const RelaxedCounter copy = counter;       // copy-construct from live
    RelaxedCounter assigned;
    assigned = counter;                        // copy-assign from live
    const std::uint64_t c = copy.load();
    EXPECT_GE(c, last) << "snapshot went backwards (torn read?)";
    EXPECT_LE(c, kBumps);
    EXPECT_GE(assigned.load(), c) << "later snapshot below earlier one";
    EXPECT_LE(assigned.load(), kBumps);
    last = c;
  }
  stop.store(true);
  owner.join();
}

// The same property end-to-end: Scheduler::stats() copies every worker's
// WorkerStats (nine RelaxedCounters each) while the workers are still
// executing tasks and bumping them. Live snapshots must be tear-free —
// per-counter monotonic across calls and bounded by the quiesced final
// totals. (Under -DDWS_TSAN=ON this test is also the TSan witness that
// live aggregation is race-annotation clean.)
TEST(SchedulerStats, LiveAggregationIsTearFree) {
  Scheduler sched(make_config(SchedMode::kDws, 4));
  std::atomic<bool> stop{false};
  std::thread pump([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      parallel_for_each_index(sched, 0, 2000, 8, [](std::int64_t) {});
    }
  });
  std::uint64_t last_tasks = 0;
  std::uint64_t last_attempts = 0;
  for (int i = 0; i < 300; ++i) {
    const SchedulerStats s = sched.stats();
    const std::uint64_t tasks = s.totals.tasks_executed;
    const std::uint64_t attempts = s.totals.steal_attempts;
    EXPECT_GE(tasks, last_tasks) << "live totals went backwards";
    EXPECT_GE(attempts, last_attempts);
    // stats() copies each worker's WorkerStats strictly before re-reading
    // the live counters into totals, so the per-worker copies can only
    // lag the totals, never exceed them.
    std::uint64_t per_worker_sum = 0;
    for (const WorkerStats& w : s.per_worker) {
      per_worker_sum += w.tasks_executed;
    }
    EXPECT_LE(per_worker_sum, tasks);
    last_tasks = tasks;
    last_attempts = attempts;
  }
  stop.store(true);
  pump.join();
  // Quiesced: snapshots taken during the run never exceeded the final
  // count (a torn read would have produced a wild overshoot).
  const std::uint64_t final_tasks = sched.stats().totals.tasks_executed;
  EXPECT_LE(last_tasks, final_tasks);
}

// The locality breakdown must partition the totals: after the workers
// quiesce, each per-tier array sums to its aggregate counter, per worker
// and in the totals. (The worker bumps the aggregate and the tier slot in
// the same code path; a pick whose tier ever fell outside [0,4) — or a
// path that skipped the tier bump — breaks the partition.)
TEST(SchedulerStats, PerTierStealCountersPartitionTheTotals) {
  Config cfg = make_config(SchedMode::kDws, 8);
  cfg.num_sockets = 2;  // both NEAR and FAR tiers exist on this machine
  Scheduler sched(cfg);
  for (int round = 0; round < 20; ++round) {
    parallel_for_each_index(sched, 0, 400, 4, [](std::int64_t) {});
  }
  // Quiesce: with no work left, every DWS worker sleeps after T_SLEEP
  // failures and the counters stop moving.
  SchedulerStats s = sched.stats();
  eventually([&] {
    const SchedulerStats cur = sched.stats();
    const bool stable =
        cur.totals.steal_attempts == s.totals.steal_attempts &&
        cur.totals.steals == s.totals.steals;
    s = cur;
    return stable;
  });
  EXPECT_GT(s.totals.steal_attempts, 0u);
  std::uint64_t attempts_sum = 0, steals_sum = 0;
  for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
    attempts_sum += s.totals.steal_attempts_by_tier[t];
    steals_sum += s.totals.steals_by_tier[t];
  }
  EXPECT_EQ(attempts_sum, s.totals.steal_attempts);
  EXPECT_EQ(steals_sum, s.totals.steals);
  for (const WorkerStats& w : s.per_worker) {
    std::uint64_t wa = 0, wsum = 0;
    for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
      wa += w.steal_attempts_by_tier[t];
      wsum += w.steals_by_tier[t];
    }
    EXPECT_EQ(wa, w.steal_attempts);
    EXPECT_EQ(wsum, w.steals);
  }
}

// A failed steal is a failed sweep: it probes every one of the k-1
// victims before T_SLEEP counts it, exactly as the simulator counts
// (one probe per failed steal would leave steal_attempts at
// steals + failed_steals).
TEST(SchedulerStats, AFailedStealProbesEveryVictim) {
  constexpr unsigned k = 4;
  Scheduler sched(make_config(SchedMode::kDws, k));
  for (int round = 0; round < 10; ++round) {
    parallel_for_each_index(sched, 0, 200, 4, [](std::int64_t) {});
  }
  // Quiesce: with no work left every worker sleeps after T_SLEEP failed
  // sweeps and the counters stop moving.
  SchedulerStats s = sched.stats();
  ASSERT_TRUE(eventually([&] {
    const SchedulerStats cur = sched.stats();
    const bool stable =
        cur.totals.steal_attempts == s.totals.steal_attempts &&
        cur.totals.failed_steals == s.totals.failed_steals;
    s = cur;
    return stable && sched.sleeping_workers() == k;
  }));
  for (const WorkerStats& w : s.per_worker) {
    EXPECT_GT(w.failed_steals, 0u);
    EXPECT_GE(w.steal_attempts, (k - 1) * w.failed_steals);
  }
}

// With a 2-socket machine model, successful steals concentrate in the
// near tier: same-socket victims are always probed first, so a
// cross-socket steal requires the thief's whole socket to be empty at
// that instant.
TEST(SchedulerStats, TieredPolicyRecordsNearSteals) {
  Config cfg = make_config(SchedMode::kDws, 8);
  cfg.num_sockets = 2;
  Scheduler sched(cfg);
  for (int round = 0; round < 50; ++round) {
    parallel_for_each_index(sched, 0, 2000, 8, [](std::int64_t) {});
  }
  const SchedulerStats s = sched.stats();
  const auto near =
      s.totals.steal_attempts_by_tier[static_cast<int>(DistanceTier::kNear)];
  EXPECT_GT(near, 0u) << "tiered selection never probed a near victim";
}

TEST(SchedulerLifecycle, ImmediateDestructionIsClean) {
  for (SchedMode mode : {SchedMode::kClassic, SchedMode::kAbp, SchedMode::kEp,
                         SchedMode::kDws, SchedMode::kDwsNc}) {
    Scheduler sched(make_config(mode, 4, 2));
    // No work at all; destructor must join everything without hanging.
  }
  SUCCEED();
}

TEST(SchedulerLifecycle, TableFullyReleasedAfterDestruction) {
  CoreTableLocal shared(4, 2);
  {
    Scheduler sched(make_config(SchedMode::kDws, 4, 2), &shared.table());
    sched.run([] {});
  }
  EXPECT_EQ(shared.table().count_free(), 4u);
}

}  // namespace
}  // namespace dws::rt

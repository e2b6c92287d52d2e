// Integration tests for the threads runtime: correctness of spawn/wait
// under every scheduling mode, the parallel algorithms, exception
// propagation, and the DWS sleep/wake lifecycle of a single program.
//
// Note: the CI host may have a single hardware core; these tests validate
// functional correctness (which is core-count independent), not speedup.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/faults.hpp"
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
                         ::testing::ValuesIn(kAllModes),
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

TEST(SchedulerApi, SpawnAndRunAcceptNamedLambdas) {
  // An lvalue callable, const or not, is copied into its task.
  Scheduler sched(make_config(SchedMode::kDws, 2));
  std::atomic<int> count{0};
  auto chunk = [&] { count.fetch_add(1); };
  const auto const_chunk = [&] { count.fetch_add(10); };
  sched.run(chunk);
  sched.run(const_chunk);
  sched.run([&] {
    TaskGroup group;
    sched.spawn(group, chunk);
    sched.spawn(group, const_chunk);
    sched.wait(group);
  });
  EXPECT_EQ(count.load(), 22);
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
  // A worker publishes Sleeping before it releases its core, so both
  // conditions are awaited together.
  ASSERT_TRUE(eventually([&] {
    return sched.sleeping_workers() == 4 && sched.table()->count_free() == 4u;
  }));
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

TEST(SchedulerDws, BackToBackRunsKeepOneSearcherAwake) {
  // A driver thread calling run() back to back leaves the program idle
  // for only its own round trip between calls. The last Active worker
  // lingers through that gap, so the runs neither sleep nor need the
  // coordinator; releasing the core at every gap costs one sleep and one
  // coordinator wake per run. Unloaded, the 200 runs add a handful of
  // each; the bound leaves room for a loaded host descheduling the driver
  // past the linger.
  Scheduler sched(make_config(SchedMode::kDws, 4, 1));
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == 4; }));
  std::atomic<int> count{0};
  sched.run([&] { count.fetch_add(1); });  // revive one worker
  const auto before = sched.stats();
  constexpr int kRuns = 200;
  for (int i = 0; i < kRuns; ++i) sched.run([&] { count.fetch_add(1); });
  const auto after = sched.stats();
  EXPECT_EQ(count.load(), kRuns + 1);
  EXPECT_LT(after.totals.sleeps - before.totals.sleeps, kRuns / 2u);
  EXPECT_LT(after.coordinator_wakes - before.coordinator_wakes, kRuns / 2u);
}

TEST(SchedulerDws, IdleProgramStillFreesEveryCoreAfterTheLinger) {
  // The linger is bounded: once work stops, the last searcher releases
  // its core too, with no coordinator involvement, about kLinger later.
  Scheduler sched(make_config(SchedMode::kDws, 4, 1));
  std::atomic<int> count{0};
  parallel_for_each_index(sched, 0, 500, 5,
                          [&](std::int64_t) { count.fetch_add(1); });
  const auto done = std::chrono::steady_clock::now();
  ASSERT_TRUE(eventually([&] { return sched.table()->count_free() == 4; }));
  const auto freed = std::chrono::steady_clock::now() - done;
  EXPECT_EQ(sched.active_workers(), 0u);
  // Linger plus one period, with slack for a loaded test host.
  const auto bound =
      Worker::kLinger + std::chrono::milliseconds(2) + 500ms;
  EXPECT_LT(freed, bound);
}

TEST(SchedulerDws, SecondProgramSlotStartsAsleep) {
  // Declared m=2 but only this program exists: its home half runs, the
  // other half's workers must park (their cores are unowned), and the
  // coordinator may later claim the free half under load.
  Scheduler sched(make_config(SchedMode::kDws, 4, 2));
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() >= 2; }));
  // Sustained load lets the coordinator claim the free non-home cores.
  // The load stays queued until a tick has claimed: on a loaded host a
  // fixed batch can drain before any tick sees it.
  std::atomic<std::int64_t> sum{0};
  std::atomic<bool> stop{false};
  std::thread load([&] {
    do {
      parallel_for_each_index(sched, 0, 200000, 16, [&](std::int64_t i) {
        sum.fetch_add(i % 7, std::memory_order_relaxed);
      });
    } while (!stop.load(std::memory_order_acquire));
  });
  (void)eventually([&] { return sched.stats().cores_claimed > 0; });
  stop.store(true, std::memory_order_release);
  load.join();
  const auto stats = sched.stats();
  EXPECT_GT(stats.cores_claimed, 0u)
      << "coordinator should have claimed free non-home cores under load";
}

TEST(SchedulerDws, ANudgeDuringATickIsNotLost) {
  // A period far longer than the test, so every tick here is a nudge's.
  Config cfg = make_config(SchedMode::kDws, 2, 1);
  cfg.coordinator_period_ms = 60000.0;
  Scheduler sched(cfg);
  Coordinator& coord = *sched.coordinator();
  // ticks() counts at the start of a tick, so nudging the moment it moves
  // lands the next nudge while that tick is usually still running. Each
  // nudge must still produce a tick well before one period.
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t before = coord.ticks();
    coord.nudge();
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (coord.ticks() == before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_GT(coord.ticks(), before) << "nudge " << i << " was lost";
  }
}

TEST(SchedulerDws, NudgesDoNotAdvanceTheStaleClock) {
  // The stale sweep advances a co-runner's stall clock by one period per
  // call, so only the period's tick may run it: a burst of nudges must
  // not declare a silent co-runner dead long before K·T has passed.
  // The co-runner is bound to a pid above Linux's PID_MAX_LIMIT (2^22),
  // which kill(pid, 0) reports as gone.
  constexpr std::uint32_t kDeadPid = 1u << 30;
  ASSERT_FALSE(harness::process_alive(static_cast<pid_t>(kDeadPid)));
  CoreTableLocal local(2, 2);
  const ProgramId corpse = local.table().register_program();
  ASSERT_TRUE(local.table().bind_liveness(corpse, kDeadPid));

  Config cfg = make_config(SchedMode::kDws, 2, 2);
  cfg.coordinator_period_ms = 60000.0;
  cfg.stale_after_periods = 3;
  Scheduler sched(cfg, &local.table());
  Coordinator& coord = *sched.coordinator();
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t before = coord.ticks();
    coord.nudge();
    const auto deadline = std::chrono::steady_clock::now() + 2s;
    while (coord.ticks() == before &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_GT(coord.ticks(), before) << "nudge " << i << " was lost";
  }
  EXPECT_EQ(sched.stats().stale_programs_swept, 0u);
  EXPECT_EQ(local.table().liveness_os_pid(corpse), kDeadPid);
}

TEST(SchedulerDws, FansOutBeforeThePeriod) {
  // A period far longer than the test: after the root's nudge wakes one
  // worker, only the backlog watch can wake the rest. The root spawns
  // k - 1 chunks that spin until k distinct workers have run one, so they
  // stay queued until sleepers join.
  constexpr unsigned kWorkers = 4;
  Config cfg = make_config(SchedMode::kDws, kWorkers);
  cfg.coordinator_period_ms = 60000.0;
  Scheduler sched(cfg);
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == kWorkers; }));

  constexpr unsigned kAll = (1u << kWorkers) - 1;
  std::atomic<unsigned> seen{0};
  const auto t0 = std::chrono::steady_clock::now();
  const auto give_up = t0 + 10s;
  auto chunk = [&] {
    seen.fetch_or(1u << current_worker()->id());
    while (seen.load() != kAll && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
  };
  std::chrono::steady_clock::duration fanout{};
  sched.run([&] {
    TaskGroup group;
    for (unsigned j = 1; j < kWorkers; ++j) sched.spawn(group, chunk);
    chunk();
    fanout = std::chrono::steady_clock::now() - t0;
    sched.wait(group);
  });
  EXPECT_EQ(seen.load(), kAll);
  // Expected: about kBacklogAge plus a wake. The bound leaves room for a
  // loaded host and is still a tenth of the period.
  EXPECT_LT(fanout, 6s);
}

TEST(SchedulerDws, PhasesShorterThanTheBacklogAgeWakeAlmostNoOne) {
  // P phases of k - 1 empty tasks each, run by one worker through
  // help-first joins: each phase ends in about a microsecond, far under
  // the backlog age λ, so its tasks never wait λ unless the OS deschedules
  // their worker mid-phase.
  //
  // Bound. The 60-s period adds no step. The root's external submission
  // nudges one step, which wakes one worker (N_b = 1, N_a = 0). Every
  // backlog step follows its own λ wait on the one coordinator thread, so
  // a run of wall time W holds at most floor(W / λ) + 1 of them, and each
  // wakes at most the k - 1 sleepers. Steps after the run see no backlog
  // and wake no one. So wakes <= 1 + (k - 1) (floor(W / λ) + 1). Unloaded,
  // W is a few ms and the bound a few dozen, against up to P (k - 1) for
  // a trigger that wakes on every push edge.
  constexpr unsigned kWorkers = 4;
  constexpr int kPhases = 2000;
  Config cfg = make_config(SchedMode::kDws, kWorkers);
  cfg.coordinator_period_ms = 60000.0;
  Scheduler sched(cfg);
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == kWorkers; }));

  const std::uint64_t before = sched.stats().coordinator_wakes;
  std::atomic<std::int64_t> ran{0};
  const auto t0 = std::chrono::steady_clock::now();
  sched.run([&] {
    for (int p = 0; p < kPhases; ++p) {
      TaskGroup group;
      for (unsigned j = 1; j < kWorkers; ++j) {
        sched.spawn(group, [&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      sched.wait(group);
    }
  });
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(ran.load(), kPhases * std::int64_t{kWorkers - 1});
  // Every worker asleep again: every step that woke one has been counted.
  ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == kWorkers; }));
  const std::uint64_t wakes = sched.stats().coordinator_wakes - before;
  const auto steps = static_cast<std::uint64_t>(wall / Coordinator::kBacklogAge) + 1;
  EXPECT_LE(wakes, 1 + (kWorkers - 1) * steps)
      << "run took " << std::chrono::duration<double, std::milli>(wall).count()
      << " ms";
}

// Spin the calling thread for `d` (a task's or a serial step's work).
void spin_for(std::chrono::steady_clock::duration d) {
  const auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

// Inside a root task: 2k chunks that each spin until all k workers have
// run one and then for two kWakeCost more, so every worker is awake and
// has just finished a busy stretch that paid for a wake. The chunks a
// worker is not yet running stay queued, at least one per Active worker,
// so every coordinator step keeps waking sleepers (Eq. 1).
void fan_out(Scheduler& sched) {
  const unsigned all = (1u << sched.num_workers()) - 1;
  std::atomic<unsigned> seen{0};
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  auto chunk = [&] {
    seen.fetch_or(1u << current_worker()->id());
    while (seen.load() != all && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::yield();
    }
    spin_for(2 * Worker::kWakeCost);
  };
  TaskGroup group;
  for (unsigned j = 1; j < 2 * sched.num_workers(); ++j) {
    sched.spawn(group, chunk);
  }
  chunk();
  sched.wait(group);
}

TEST(SchedulerDws, WorkersThatPaidStayAcrossShortJoins) {
  // P phases of k tasks, each two kWakeCost long (and half kLinger, so a
  // thief that waits out a task of another still lingers into the next
  // phase), separated by help-first joins; the root nudges the coordinator
  // after each spawn, as the backlog watch would for a longer phase, so a
  // sleeping thief is woken for every phase. A thief's busy stretch (its
  // task) pays for a wake, so it lingers through the join and takes the
  // next phase's task instead of sleeping at every phase tail, as it
  // would if only the last Active worker lingered (164-297 sleeps here).
  // A thief sleeps only when its linger runs out: at most once each, plus
  // a small slack.
  //
  // Only a loop the thieves took part in shows the rule: when the host
  // lends the cores elsewhere, the coordinator misses most nudges and the
  // root runs every phase alone. Such a loop is retried, a loop a
  // descheduled root stretched past the linger too, up to five times.
  constexpr unsigned kWorkers = 4;
  constexpr int kPhases = 100;
  constexpr std::uint64_t kSpawned = kPhases * (kWorkers - 1);
  constexpr std::uint64_t kBound = kWorkers - 1 + kPhases / 10;
  static constexpr auto kTask = 2 * Worker::kWakeCost;
  static_assert(2 * kTask <= Worker::kLinger);
  Config cfg = make_config(SchedMode::kDws, kWorkers);
  cfg.coordinator_period_ms = 60000.0;
  Scheduler sched(cfg);
  std::uint64_t fewest = ~std::uint64_t{0};
  int joined = 0;
  for (int attempt = 0; attempt < 5 && fewest > kBound; ++attempt) {
    std::uint64_t sleeps = 0;
    std::uint64_t stolen = 0;
    sched.run([&] {
      const unsigned root = current_worker()->id();
      const SchedulerStats before = sched.stats();
      for (int p = 0; p < kPhases; ++p) {
        TaskGroup group;
        for (unsigned j = 1; j < kWorkers; ++j) {
          sched.spawn(group, [] { spin_for(kTask); });
        }
        sched.coordinator()->nudge();
        spin_for(kTask);
        sched.wait(group);
      }
      const SchedulerStats after = sched.stats();
      sleeps = after.totals.sleeps - before.totals.sleeps;
      for (unsigned i = 0; i < kWorkers; ++i) {
        if (i == root) continue;
        stolen += after.per_worker[i].tasks_executed -
                  before.per_worker[i].tasks_executed;
      }
    });
    if (2 * stolen < kSpawned) continue;
    ++joined;
    fewest = std::min(fewest, sleeps);
  }
  if (joined == 0) {
    GTEST_SKIP() << "the thieves ran under half the tasks in every loop: "
                    "the host did not give the program its cores";
  }
  EXPECT_LE(fewest, kBound);
}

TEST(SchedulerDws, ShortStretchesStillSleepAtOnce) {
  // Phases of k - 1 empty tasks with a short serial step between them: a
  // thief's busy stretch (one empty task) is far under kWakeCost, so it
  // sleeps on its T_SLEEP-th failure and stays asleep until a period's
  // step wakes it for a moment. Were it to linger instead, it would find
  // the next phase's task within the linger every time and stay Active.
  // Each of three rounds starts with the thieves awake (they just ran the
  // fan-out's long chunks, so each may linger once); the root's worker
  // stays Active, so none of them is the program's last Active worker.
  // Over the second half of each round, the root samples whether a thief
  // is Active.
  constexpr unsigned kWorkers = 4;
  Scheduler sched(make_config(SchedMode::kDws, kWorkers));
  for (int round = 0; round < 3; ++round) {
    int samples = 0;
    int crowded = 0;
    sched.run([&] {
      fan_out(sched);
      const auto start = std::chrono::steady_clock::now();
      while (std::chrono::steady_clock::now() < start + 30ms) {
        TaskGroup group;
        for (unsigned j = 1; j < kWorkers; ++j) sched.spawn(group, [] {});
        sched.wait(group);
        spin_for(Worker::kWakeCost / 6);
        if (std::chrono::steady_clock::now() > start + 15ms) {
          ++samples;
          if (sched.active_workers() > 1) ++crowded;
        }
      }
    });
    EXPECT_LT(2 * crowded, samples)
        << "round " << round << ": " << crowded << " of " << samples
        << " samples saw a thief Active";
  }
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

TEST(SchedulerDwsNc, SecondWakeOfAWokenWorkerMisses) {
  // A woken worker counts as Active at once, before its thread runs, so a
  // second wake misses: the simulator's kWaking accounting. The period
  // is pushed out so no coordinator step wakes anyone in between.
  Config cfg = make_config(SchedMode::kDwsNc, 4);
  cfg.coordinator_period_ms = 1e9;
  Scheduler sched(cfg);
  Worker& w = sched.worker_at(0);
  // Retried only if the woken worker went back to sleep between the wakes
  // (it lingers 200 µs first, so only a descheduled test thread sees it).
  for (int attempt = 0; attempt < 10; ++attempt) {
    ASSERT_TRUE(eventually([&] { return sched.sleeping_workers() == 4; }));
    const std::uint64_t sleeps = w.stats().sleeps;
    const bool first = w.wake();
    const bool second = w.wake();
    const unsigned active = sched.active_workers();
    if (w.stats().sleeps != sleeps) continue;
    EXPECT_TRUE(first);
    EXPECT_FALSE(second);
    EXPECT_EQ(active, 1u);
    return;
  }
  FAIL() << "the woken worker fell asleep again between every pair of wakes";
}

// CLASSIC, ABP and EP block idle on the worker's sleep word, as DWS
// sleeps do, but count no sleep and release no core; the submitter's
// 0 -> 1 edge wakes them.
class SchedulerIdle : public ::testing::TestWithParam<SchedMode> {};

TEST_P(SchedulerIdle, NonSleepingModesBlockOnTheWordAndWakeForExternalWork) {
  Scheduler sched(make_config(GetParam(), 4));
  // Every worker that is not parked is Sleeping.
  const auto fully_idle = [&] {
    for (unsigned i = 0; i < sched.num_workers(); ++i) {
      const Worker::State s = sched.worker_at(i).state();
      if (s != Worker::State::kSleeping && s != Worker::State::kParked) {
        return false;
      }
    }
    return sched.active_workers() == 0;
  };
  ASSERT_TRUE(eventually(fully_idle));
  constexpr std::int64_t kN = 64;
  std::atomic<std::int64_t> count{0};
  for (int rep = 1; rep <= 200; ++rep) {
    // run(), spelled out so that a lost wake fails the test instead of
    // hanging it: the waker of last resort is the test itself.
    TaskGroup root;
    sched.spawn(root, [&] {
      parallel_for(sched, 0, kN, 4, [&](std::int64_t b, std::int64_t e) {
        count.fetch_add(e - b, std::memory_order_relaxed);
      });
    });
    const bool ran = eventually([&] { return count.load() == rep * kN; });
    if (!ran) {
      for (unsigned i = 0; i < sched.num_workers(); ++i) {
        (void)sched.worker_at(i).wake();
      }
    }
    sched.wait(root);
    ASSERT_TRUE(ran) << "the submission woke no worker, rep " << rep;
    ASSERT_TRUE(eventually(fully_idle)) << "rep " << rep;
  }
  EXPECT_EQ(sched.stats().totals.sleeps, 0u);
}

INSTANTIATE_TEST_SUITE_P(NonSleepingModes, SchedulerIdle,
                         ::testing::Values(SchedMode::kClassic,
                                           SchedMode::kAbp, SchedMode::kEp),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

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

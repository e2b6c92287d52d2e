// Co-running tests: several Scheduler instances ("programs") sharing one
// core allocation table inside one process — the paper's multi-programmed
// scenario, hermetically. Verifies the disjoint-core invariant, demand-
// driven exchange, and take-back (§3.3 constraints).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace dws::rt {
namespace {

using namespace std::chrono_literals;

Config corun_config(SchedMode mode, unsigned cores, unsigned programs) {
  Config cfg;
  cfg.mode = mode;
  cfg.num_cores = cores;
  cfg.num_programs = programs;
  cfg.pin_threads = false;
  cfg.coordinator_period_ms = 2.0;
  return cfg;
}

template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5000ms) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

std::int64_t spin_work(std::int64_t iters) {
  // Opaque arithmetic the optimizer cannot remove.
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    acc += i ^ (acc >> 3);
    asm volatile("" : "+r"(acc));  // optimization barrier
  }
  return acc;
}

TEST(CoRun, TwoDwsProgramsCompleteConcurrentWork) {
  CoreTableLocal shared(4, 2);
  const Config cfg = corun_config(SchedMode::kDws, 4, 2);
  Scheduler p1(cfg, &shared.table());
  Scheduler p2(cfg, &shared.table());
  ASSERT_NE(p1.pid(), p2.pid());

  std::atomic<int> c1{0}, c2{0};
  std::thread t1([&] {
    parallel_for_each_index(p1, 0, 2000, 8, [&](std::int64_t) {
      spin_work(200);
      c1.fetch_add(1, std::memory_order_relaxed);
    });
  });
  std::thread t2([&] {
    parallel_for_each_index(p2, 0, 2000, 8, [&](std::int64_t) {
      spin_work(200);
      c2.fetch_add(1, std::memory_order_relaxed);
    });
  });
  t1.join();
  t2.join();
  EXPECT_EQ(c1.load(), 2000);
  EXPECT_EQ(c2.load(), 2000);
}

TEST(CoRun, TableNeverAssignsACoreToTwoPrograms) {
  // Structural invariant of the table: each slot holds one pid. Sample the
  // table while two DWS programs churn and verify every sample is a valid
  // partition (each core free or owned by pid 1 or 2).
  CoreTableLocal shared(4, 2);
  const Config cfg = corun_config(SchedMode::kDws, 4, 2);
  Scheduler p1(cfg, &shared.table());
  Scheduler p2(cfg, &shared.table());

  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (CoreId c = 0; c < 4; ++c) {
        const ProgramId u = shared.table().user_of(c);
        if (u > 2) violation.store(true);
      }
      std::this_thread::yield();
    }
  });

  std::thread t1([&] {
    for (int round = 0; round < 10; ++round) {
      parallel_for_each_index(p1, 0, 300, 4,
                              [&](std::int64_t) { spin_work(100); });
    }
  });
  std::thread t2([&] {
    for (int round = 0; round < 10; ++round) {
      parallel_for_each_index(p2, 0, 300, 4,
                              [&](std::int64_t) { spin_work(100); });
    }
  });
  t1.join();
  t2.join();
  stop.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_FALSE(violation.load());
}

TEST(CoRun, BusyProgramBorrowsIdleProgramsCores) {
  CoreTableLocal shared(4, 2);
  const Config cfg = corun_config(SchedMode::kDws, 4, 2);
  Scheduler busy(cfg, &shared.table());
  Scheduler idle(cfg, &shared.table());

  // The idle program's workers sleep and release their home cores.
  ASSERT_TRUE(eventually([&] { return idle.sleeping_workers() == 4; }));

  // The busy program should claim those freed cores under load. The load
  // repeats until a claim is seen: on a loaded host one fixed batch can
  // drain before the coordinator's first step.
  std::atomic<std::int64_t> sum{0};
  std::atomic<bool> stop{false};
  std::thread load([&] {
    do {
      parallel_for_each_index(busy, 0, 100000, 8, [&](std::int64_t i) {
        sum.fetch_add(spin_work(30) + i, std::memory_order_relaxed);
      });
    } while (!stop.load(std::memory_order_acquire));
  });
  (void)eventually([&] { return busy.stats().cores_claimed > 0; });
  stop.store(true, std::memory_order_release);
  load.join();
  const auto stats = busy.stats();
  EXPECT_GT(stats.cores_claimed, 0u)
      << "busy program never borrowed the idle program's released cores";
}

TEST(CoRun, OwnerReclaimsCoresWhenItsDemandReturns) {
  CoreTableLocal shared(4, 2);
  const Config cfg = corun_config(SchedMode::kDws, 4, 2);
  Scheduler a(cfg, &shared.table());
  Scheduler b(cfg, &shared.table());

  // Phase 1: a is idle; b (kept busy until a finishes, so a's cores stay
  // borrowed for the whole of phase 2) grabs a's cores.
  ASSERT_TRUE(eventually([&] { return a.sleeping_workers() == 4; }));
  std::atomic<bool> stop_b{false};
  std::thread tb([&] {
    while (!stop_b.load(std::memory_order_acquire)) {
      // Grain 1 over a large range keeps every one of b's deques full, so
      // b's workers never fail a steal, never sleep, and never release
      // a's borrowed cores voluntarily — forcing a onto the reclaim path.
      parallel_for_each_index(b, 0, 50000, 1,
                              [&](std::int64_t) { spin_work(50); });
    }
  });
  ASSERT_TRUE(eventually(
      [&] { return shared.table().count_borrowed_from(a.pid()) > 0; }))
      << "b never borrowed a's cores";

  // Phase 2: a's demand returns; its coordinator must take cores back
  // (no free cores exist while b is saturating the machine). a's load
  // stays queued until a tick has reclaimed: on a loaded host a fixed
  // number of rounds can drain before any tick sees it.
  std::atomic<int> ca{0};
  std::atomic<bool> stop_a{false};
  int rounds = 0;
  std::thread ta([&] {
    do {
      parallel_for_each_index(a, 0, 2000, 4, [&](std::int64_t) {
        spin_work(100);
        ca.fetch_add(1, std::memory_order_relaxed);
      });
      ++rounds;
    } while (!stop_a.load(std::memory_order_acquire));
  });
  (void)eventually([&] { return a.stats().cores_reclaimed > 0; });
  stop_a.store(true, std::memory_order_release);
  ta.join();
  stop_b.store(true, std::memory_order_release);
  tb.join();
  EXPECT_EQ(ca.load(), 2000 * rounds);
  const auto stats = a.stats();
  EXPECT_GT(stats.cores_reclaimed, 0u)
      << "a never reclaimed its borrowed home cores";
}

TEST(CoRun, EvictedBorrowerVacatesTheCore) {
  CoreTableLocal shared(2, 2);
  const Config cfg = corun_config(SchedMode::kDws, 2, 2);
  Scheduler a(cfg, &shared.table());
  Scheduler b(cfg, &shared.table());

  ASSERT_TRUE(eventually([&] { return a.sleeping_workers() == 2; }));
  // b under sustained load borrows a's single home core...
  std::atomic<bool> stop_b{false};
  std::thread tb([&] {
    while (!stop_b.load(std::memory_order_acquire)) {
      parallel_for_each_index(b, 0, 500, 2,
                              [&](std::int64_t) { spin_work(200); });
    }
  });
  ASSERT_TRUE(eventually(
      [&] { return shared.table().count_borrowed_from(a.pid()) == 1; }));

  // ...then a's demand returns and it reclaims; b's worker on that core
  // must observe the eviction and vacate.
  for (int round = 0; round < 20; ++round) {
    parallel_for_each_index(a, 0, 500, 2,
                            [&](std::int64_t) { spin_work(200); });
  }
  stop_b.store(true, std::memory_order_release);
  tb.join();

  const auto stats_b = b.stats();
  EXPECT_GT(stats_b.totals.evictions, 0u)
      << "b's borrowed worker never vacated after a's reclaim";
}

TEST(CoRun, FourEpProgramsKeepDisjointStaticPartitions) {
  CoreTableLocal shared(8, 4);
  const Config cfg = corun_config(SchedMode::kEp, 8, 4);
  std::vector<std::unique_ptr<Scheduler>> programs;
  for (int i = 0; i < 4; ++i) {
    programs.push_back(std::make_unique<Scheduler>(cfg, &shared.table()));
  }
  // Every program holds exactly its 2 home cores, forever.
  for (auto& p : programs) {
    EXPECT_EQ(shared.table().count_active(p->pid()), 2u);
    EXPECT_EQ(shared.table().count_borrowed_from(p->pid()), 0u);
  }
  std::vector<std::thread> threads;
  std::atomic<int> done{0};
  for (auto& p : programs) {
    threads.emplace_back([&p, &done] {
      parallel_for_each_index(*p, 0, 1000, 8,
                              [](std::int64_t) { spin_work(50); });
      done.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), 4);
  // Partitions unchanged by load — EP is static by design.
  for (auto& p : programs) {
    EXPECT_EQ(shared.table().count_active(p->pid()), 2u);
  }
}

TEST(CoRun, EpWorkerParksOnAHomeCoreAnotherProgramHolds) {
  // A squatter (pid 1) holds core 2 before the EP program (pid 2, home
  // cores 2-3) starts, so EP gets only core 3. Its worker 2 must park, not
  // exit while still reporting Active; worker 3, with no work, blocks idle
  // on its sleep word.
  CoreTableLocal shared(4, 2);
  CoreTable& table = shared.table();
  const ProgramId squatter = table.register_program();
  ASSERT_EQ(squatter, 1u);
  ASSERT_TRUE(table.try_claim(2, squatter));
  Scheduler ep(corun_config(SchedMode::kEp, 4, 2), &table);
  ASSERT_EQ(ep.pid(), 2u);

  EXPECT_TRUE(eventually([&] {
    return ep.worker_at(2).state() == Worker::State::kParked &&
           ep.worker_at(3).state() == Worker::State::kSleeping;
  }));
  // The parked workers count as neither Active nor Sleeping.
  EXPECT_EQ(ep.active_workers() + ep.sleeping_workers(), 1u);

  std::atomic<int> count{0};
  parallel_for_each_index(ep, 0, 500, 8, [&](std::int64_t) {
    spin_work(50);
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 500);
  EXPECT_EQ(ep.stats().per_worker[2].tasks_executed, 0u);
}

TEST(CoRun, SharedTableNarrowerThanTheMachineIsRejected) {
  // Workers index the table by core id: a 2-core table under a 4-core
  // Scheduler would be read past its end.
  CoreTableLocal narrow(2, 1);
  EXPECT_THROW(Scheduler(corun_config(SchedMode::kDws, 4, 1), &narrow.table()),
               std::invalid_argument);
  // Nothing was registered before the check.
  EXPECT_EQ(narrow.table().registered_programs(), 0u);
}

TEST(CoRun, MixedWidthsThreeDwsPrograms) {
  // 6 cores, 3 programs: exercises non-power-of-two partitions.
  CoreTableLocal shared(6, 3);
  const Config cfg = corun_config(SchedMode::kDws, 6, 3);
  Scheduler p1(cfg, &shared.table());
  Scheduler p2(cfg, &shared.table());
  Scheduler p3(cfg, &shared.table());

  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (Scheduler* p : {&p1, &p2, &p3}) {
    threads.emplace_back([p, &total] {
      parallel_for_each_index(*p, 0, 1500, 8, [&](std::int64_t) {
        spin_work(80);
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(total.load(), 4500);
}

}  // namespace
}  // namespace dws::rt

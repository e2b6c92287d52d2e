// Stress tests for the real pthread runtime: randomized spawn trees,
// scheduler churn, deep nesting, exception storms, mixed group usage,
// and cross-scheduler interactions. Sized for a small CI host.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace dws::rt {
namespace {

Config stress_config(SchedMode mode, unsigned cores) {
  Config cfg;
  cfg.mode = mode;
  cfg.num_cores = cores;
  cfg.num_programs = 1;
  cfg.pin_threads = false;
  cfg.coordinator_period_ms = 1.0;
  return cfg;
}

/// Random recursive spawn tree; every node increments the counter once.
void random_tree(Scheduler& sched, util::Xoshiro256& seed_gen,
                 std::uint64_t seed, int depth, std::atomic<long>& count) {
  count.fetch_add(1, std::memory_order_relaxed);
  if (depth <= 0) return;
  util::Xoshiro256 rng(seed);
  const unsigned children = 1 + static_cast<unsigned>(rng.next_below(3));
  TaskGroup g;
  for (unsigned i = 0; i < children; ++i) {
    const std::uint64_t child_seed = rng.next();
    sched.spawn(g, [&sched, &seed_gen, child_seed, depth, &count] {
      random_tree(sched, seed_gen, child_seed, depth - 1, count);
    });
  }
  sched.wait(g);
}

class RuntimeStress : public ::testing::TestWithParam<SchedMode> {};

TEST_P(RuntimeStress, RandomSpawnTreesComplete) {
  Scheduler sched(stress_config(GetParam(), 4));
  util::Xoshiro256 seeds(2026);
  for (int round = 0; round < 5; ++round) {
    std::atomic<long> count{0};
    sched.run([&] { random_tree(sched, seeds, seeds.next(), 6, count); });
    EXPECT_GT(count.load(), 6) << "round " << round;
  }
}

TEST_P(RuntimeStress, ManySmallJobsBackToBack) {
  Scheduler sched(stress_config(GetParam(), 2));
  long total = 0;
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> n{0};
    sched.run([&] {
      TaskGroup g;
      for (int i = 0; i < 5; ++i) sched.spawn(g, [&] { n.fetch_add(1); });
      sched.wait(g);
    });
    total += n.load();
  }
  EXPECT_EQ(total, 200 * 5);
}

// One join whose group dies the moment wait() returns: the frame that
// holds it returns at once (a use-after-return under ASan's
// detect_stack_use_after_return=1 if a completer touched it later). Its
// tasks wait for each other, briefly, so they race the final decrement.
void short_lived_join(Scheduler& sched, int tasks, std::atomic<long>& ran) {
  TaskGroup g;
  std::atomic<int> arrived{0};
  for (int i = 0; i < tasks; ++i) {
    sched.spawn(g, [&arrived, &ran, tasks] {
      arrived.fetch_add(1, std::memory_order_relaxed);
      for (int spin = 0; spin < 2000 &&
                         arrived.load(std::memory_order_relaxed) < tasks;
           ++spin) {
      }
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  sched.wait(g);
}

constexpr int kShortJoins = 2000;
constexpr int kJoinTasks = 4;

TEST_P(RuntimeStress, ShortLivedGroupsDieAtTheirJoinOnAWorker) {
  Scheduler sched(stress_config(GetParam(), 4));
  std::atomic<long> ran{0};
  sched.run([&] {
    for (int i = 0; i < kShortJoins; ++i) {
      short_lived_join(sched, kJoinTasks, ran);
    }
  });
  EXPECT_EQ(ran.load(), long{kShortJoins} * kJoinTasks);
}

TEST_P(RuntimeStress, ShortLivedGroupsDieAtTheirJoinExternally) {
  Scheduler sched(stress_config(GetParam(), 4));
  std::atomic<long> ran{0};
  for (int i = 0; i < kShortJoins; ++i) {
    short_lived_join(sched, kJoinTasks, ran);
  }
  EXPECT_EQ(ran.load(), long{kShortJoins} * kJoinTasks);
}

TEST_P(RuntimeStress, DeepNestingDoesNotDeadlock) {
  Scheduler sched(stress_config(GetParam(), 2));
  std::atomic<int> depth_reached{0};
  std::function<void(int)> nest = [&](int d) {
    depth_reached.fetch_add(1);
    if (d <= 0) return;
    TaskGroup g;
    sched.spawn(g, [&, d] { nest(d - 1); });
    sched.wait(g);
  };
  sched.run([&] { nest(64); });
  EXPECT_EQ(depth_reached.load(), 65);
}

INSTANTIATE_TEST_SUITE_P(Modes, RuntimeStress,
                         ::testing::ValuesIn(kAllModes),
                         [](const auto& info) {
                           std::string s = to_string(info.param);
                           for (auto& ch : s) {
                             if (ch == '-') ch = '_';
                           }
                           return s;
                         });

TEST(RuntimeStress, SchedulerChurn) {
  // Construct and destroy schedulers repeatedly, with and without work:
  // shutdown paths must be leak- and deadlock-free under every mode.
  for (int round = 0; round < 10; ++round) {
    for (SchedMode mode : kAllModes) {
      Scheduler sched(stress_config(mode, 2));
      if (round % 2 == 0) {
        std::atomic<int> n{0};
        parallel_for_each_index(sched, 0, 50, 5,
                                [&](std::int64_t) { n.fetch_add(1); });
        ASSERT_EQ(n.load(), 50);
      }
    }
  }
  SUCCEED();
}

TEST(RuntimeStress, ExceptionStorm) {
  Scheduler sched(stress_config(SchedMode::kDws, 4));
  int caught = 0;
  for (int round = 0; round < 30; ++round) {
    try {
      parallel_for_each_index(sched, 0, 100, 1, [&](std::int64_t i) {
        if (i % 17 == round % 17) throw std::runtime_error("storm");
      });
    } catch (const std::runtime_error&) {
      ++caught;
    }
  }
  EXPECT_EQ(caught, 30);
  // Scheduler still functional afterwards.
  std::atomic<int> n{0};
  parallel_for_each_index(sched, 0, 100, 10,
                          [&](std::int64_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
}

TEST(RuntimeStress, ConcurrentExternalSubmitters) {
  // Several external threads submit into the same scheduler at once.
  Scheduler sched(stress_config(SchedMode::kDws, 4));
  constexpr int kThreads = 4;
  constexpr int kJobsPerThread = 25;
  std::atomic<int> total{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int j = 0; j < kJobsPerThread; ++j) {
        sched.run([&] {
          TaskGroup g;
          for (int i = 0; i < 8; ++i) {
            sched.spawn(g, [&] { total.fetch_add(1); });
          }
          sched.wait(g);
        });
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(total.load(), kThreads * kJobsPerThread * 8);
}

TEST(RuntimeStress, TwoSchedulersUsedFromOneThreadAlternately) {
  Scheduler a(stress_config(SchedMode::kAbp, 2));
  Scheduler b(stress_config(SchedMode::kDws, 2));
  std::atomic<int> na{0}, nb{0};
  for (int round = 0; round < 20; ++round) {
    parallel_for_each_index(a, 0, 40, 4, [&](std::int64_t) { na.fetch_add(1); });
    parallel_for_each_index(b, 0, 40, 4, [&](std::int64_t) { nb.fetch_add(1); });
  }
  EXPECT_EQ(na.load(), 800);
  EXPECT_EQ(nb.load(), 800);
}

TEST(RuntimeStress, ReduceWithHeavyPartials) {
  // Reduce over a type with allocation in the combine path.
  Scheduler sched(stress_config(SchedMode::kDws, 4));
  const auto result = parallel_reduce<std::vector<int>>(
      sched, 0, 1000, 37, std::vector<int>{},
      [](std::int64_t b, std::int64_t e) {
        std::vector<int> v;
        for (std::int64_t i = b; i < e; ++i) v.push_back(static_cast<int>(i));
        return v;
      },
      [](std::vector<int> x, std::vector<int> y) {
        x.insert(x.end(), y.begin(), y.end());
        return x;
      });
  ASSERT_EQ(result.size(), 1000u);
  long sum = 0;
  for (int v : result) sum += v;
  EXPECT_EQ(sum, 999L * 1000 / 2);
}

}  // namespace
}  // namespace dws::rt

// Unit tests for the task primitives: TaskGroup join counting, exception
// capture semantics, blocking on the join word, and TaskBase
// execution/destruction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>

#include "runtime/task.hpp"

namespace dws::rt {
namespace {

using namespace std::chrono_literals;

TEST(TaskGroup, StartsDone) {
  TaskGroup g;
  EXPECT_TRUE(g.done());
  EXPECT_EQ(g.join().pending(), 0u);
}

TEST(TaskGroup, PendingCountsUpAndDown) {
  TaskGroup g;
  g.add_pending();
  g.add_pending();
  EXPECT_FALSE(g.done());
  EXPECT_EQ(g.join().pending(), 2u);
  g.complete_one();
  EXPECT_FALSE(g.done());
  g.complete_one();
  EXPECT_TRUE(g.done());
}

TEST(TaskGroup, TimedBlockReturnsImmediatelyWhenDone) {
  TaskGroup g;
  const auto start = std::chrono::steady_clock::now();
  g.join().wait_until(start + 1s);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 500ms);
}

TEST(TaskGroup, TimedBlockWakesOnCompletion) {
  TaskGroup g;
  g.add_pending();
  std::thread completer([&] {
    std::this_thread::sleep_for(20ms);
    g.complete_one();
  });
  const auto start = std::chrono::steady_clock::now();
  while (!g.done()) {
    g.join().wait_until(std::chrono::steady_clock::now() + 5s);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, 4s);
  completer.join();
}

TEST(TaskGroup, TimedBlockTimesOut) {
  TaskGroup g;
  g.add_pending();
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() < start + 20ms) {
    g.join().wait_until(start + 20ms);
  }
  EXPECT_FALSE(g.done());
  g.complete_one();
}

TEST(TaskGroup, BlockWakesOnCompletion) {
  TaskGroup g;
  g.add_pending();
  g.add_pending();
  std::thread completer([&] {
    std::this_thread::sleep_for(20ms);
    g.complete_one();
    std::this_thread::sleep_for(20ms);
    g.complete_one();
  });
  g.join().wait();
  EXPECT_TRUE(g.done());
  completer.join();
}

// A policy whose atomics start near a full count, so the overflow check
// runs without 2^31 adds.
struct NearlyFull : StdAtomicsPolicy {
  static constexpr std::uint32_t kStart = ~std::uint32_t{0} - 3;  // count 2^31-2
  template <typename T>
  struct atomic : std::atomic<T> {
    // NOLINTNEXTLINE(google-explicit-constructor): mirrors std::atomic
    atomic(T /*init*/) : std::atomic<T>(kStart) {}
  };
};

TEST(TaskGroup, CountPastThirtyOneBitsThrows) {
  JoinWord<NearlyFull> join;
  EXPECT_EQ(join.pending(), (1u << 31) - 2);
  join.add();
  EXPECT_EQ(join.pending(), (1u << 31) - 1);
  EXPECT_THROW(join.add(), std::length_error);
  EXPECT_EQ(join.pending(), (1u << 31) - 1);
  join.complete_one();
  EXPECT_EQ(join.pending(), (1u << 31) - 2);
}

TEST(TaskGroup, CapturesFirstExceptionOnly) {
  TaskGroup g;
  g.capture_exception(std::make_exception_ptr(std::runtime_error("first")));
  g.capture_exception(std::make_exception_ptr(std::logic_error("second")));
  try {
    g.rethrow_if_exception();
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  } catch (...) {
    FAIL() << "wrong exception type (second capture must be dropped)";
  }
}

TEST(TaskGroup, RethrowClearsTheException) {
  TaskGroup g;
  g.capture_exception(std::make_exception_ptr(std::runtime_error("once")));
  EXPECT_THROW(g.rethrow_if_exception(), std::runtime_error);
  EXPECT_NO_THROW(g.rethrow_if_exception());  // consumed
}

TEST(TaskGroup, NoExceptionNoThrow) {
  TaskGroup g;
  EXPECT_NO_THROW(g.rethrow_if_exception());
}

TEST(TaskBase, RunAndDestroyExecutesAndCompletesGroup) {
  TaskGroup g;
  g.add_pending();
  std::atomic<bool> ran{false};
  auto* task = new TaskImpl(&g, [&] { ran = true; });
  task->run_and_destroy();
  EXPECT_TRUE(ran.load());
  EXPECT_TRUE(g.done());
}

TEST(TaskBase, ThrowingTaskStillCompletesGroup) {
  TaskGroup g;
  g.add_pending();
  auto* task =
      new TaskImpl(&g, [] { throw std::runtime_error("task failed"); });
  task->run_and_destroy();  // noexcept: must not propagate
  EXPECT_TRUE(g.done());
  EXPECT_THROW(g.rethrow_if_exception(), std::runtime_error);
}

TEST(TaskBase, NullGroupIsAllowed) {
  auto* task = new TaskImpl(static_cast<TaskGroup*>(nullptr), [] {});
  task->run_and_destroy();  // must not crash
  SUCCEED();
}

TEST(TaskBase, MoveOnlyPayload) {
  TaskGroup g;
  g.add_pending();
  auto ptr = std::make_unique<int>(41);
  std::atomic<int> result{0};
  auto* task = new TaskImpl(&g, [p = std::move(ptr), &result]() mutable {
    result = *p + 1;
  });
  task->run_and_destroy();
  EXPECT_EQ(result.load(), 42);
}

TEST(TaskGroup, ConcurrentCompletionsAreExact) {
  TaskGroup g;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) g.add_pending();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kN / 4; ++i) g.complete_one();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_TRUE(g.done());
  EXPECT_EQ(g.join().pending(), 0u);
}

}  // namespace
}  // namespace dws::rt

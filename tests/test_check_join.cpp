// Model check of the TaskGroup join as compiled: the production JoinWord
// template (src/runtime/task.hpp) over the checker's instrumented
// atomics and its model of the policy's wait, timed wait and wake.
//
// Scenario: two completers race the group's final decrement against one
// waiter. The waiter is a worker (Scheduler::wait on a worker with
// nothing to steal: a failed search, then timed parks) or an external
// thread (an untimed park). Each completer writes its task's result, a
// checked plain cell, before its decrement. The waiter reads both results
// once it returns and then destroys the group: from there on, any access
// to the word fails the execution.
//
// Properties:
//  - no waiter returns while the count is non-zero: it reads both
//    results, race-free;
//  - no waiter ends parked at count 0;
//  - no completer loads or stores the word after the waiter returned.
//    The wake is a syscall on the word's address and reads nothing there.
//
// Three seeded faults, each injected through the atomics policy, prove
// the scenario sees the bugs: a wake that re-reads the word first (the
// old completer, which locked the group's mutex after its decrement to
// notify), a wake that does nothing, and a park that blocks without
// comparing the word (a futex wait without its compare).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "check/check.hpp"
#include "runtime/task.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;
using rt::JoinWord;
using Clock = std::chrono::steady_clock;

// Set by the waiter once it returns: the group is gone. Executions run
// one at a time and their model threads are serialized, so a plain flag
// is safe.
bool g_destroyed = false;

/// The group's word: every access fails once the group is destroyed. The
/// test follows the access, because the access's scheduling point, where
/// the waiter may run and return, comes first.
template <typename T>
struct GroupAtomic : check::atomic<T> {
  using Base = check::atomic<T>;
  using Base::Base;

  static T alive(T v) {
    check::expect(!g_destroyed,
                  "a completer touched the group after its waiter returned");
    return v;
  }
  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    return alive(Base::load(mo));
  }
  T fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return alive(Base::fetch_add(v, mo));
  }
  T fetch_sub(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return alive(Base::fetch_sub(v, mo));
  }
  T fetch_or(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return alive(Base::fetch_or(v, mo));
  }
};

struct Checked : check::CheckAtomicsPolicy {
  template <typename T>
  using atomic = GroupAtomic<T>;
};

/// The final completer reads the word before it wakes: the shape of the
/// old completer, which took the group's mutex after its decrement.
struct RereadingWake : Checked {
  static void wake(atomic<std::uint32_t>& word) {
    (void)word.load(std::memory_order_relaxed);
    Checked::wake(word);
  }
};

/// The final completer skips the wake although a waiter parked.
struct NoWake : Checked {
  static void wake(atomic<std::uint32_t>& /*word*/) {}
};

/// A park that blocks without comparing the word: a wake that lands
/// between the waiter's last look at the count and its sleep is lost.
struct BlindWait : Checked {
  static void wait(const atomic<std::uint32_t>& word,
                   std::uint32_t /*expected*/) {
    word.wait_blind();
  }
};

Options exhaustive() {
  Options o;
  o.mode = Options::Mode::kExhaustive;
  o.preemption_bound = 3;
  return o;
}

using Scenario = std::function<void(Sim&)>;

void expect_clean(const Scenario& scenario) {
  const Result r = check::explore(exhaustive(), scenario);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.executions, 1);
}

void expect_caught(const Scenario& scenario, const std::string& what) {
  const Result r = check::explore(exhaustive(), scenario);
  ASSERT_TRUE(r.failed) << "checker missed the seeded fault";
  EXPECT_NE(r.message.find(what), std::string::npos) << r.message;
  EXPECT_FALSE(r.schedule.empty());

  Options replay = exhaustive();
  replay.replay = r.schedule;
  const Result again = check::explore(replay, scenario);
  EXPECT_TRUE(again.failed);
  EXPECT_EQ(again.message, r.message);
  EXPECT_EQ(again.executions, 1);
}

enum class Waiter { kWorker, kExternal };

template <typename Policy>
struct Join {
  JoinWord<Policy> join;
  check::var<int> results[2];
};

// Scheduler::wait on a worker whose searches all fail: the first failure
// yields (here, a scheduling point), the rest park with a timeout.
template <typename Policy>
void worker_wait(JoinWord<Policy>& join) {
  for (bool searched = false; !join.done(); searched = true) {
    if (searched) {
      join.wait_until(Clock::now() + std::chrono::microseconds(200));
    }
  }
}

template <typename Policy>
Scenario join_race(Waiter waiter) {
  return [waiter](Sim& sim) {
    g_destroyed = false;
    auto st = std::make_shared<Join<Policy>>();
    st->join.add();
    st->join.add();
    sim.spawn([st, waiter] {  // model thread 1: the waiter
      if (waiter == Waiter::kWorker) {
        worker_wait(st->join);
      } else {
        st->join.wait();
      }
      for (const auto& r : st->results) {
        check::expect(r.read() == 1,
                      "the waiter returned while the count was non-zero");
      }
      g_destroyed = true;
    });
    for (int c = 0; c < 2; ++c) {
      sim.spawn([st, c] {
        st->results[c].write(1);
        st->join.complete_one();
      });
    }
    sim.on_exit([] {
      check::expect(!check::ended_blocked(1),
                    "the waiter ended parked at count 0");
    });
  };
}

TEST(JoinWordCheck, WorkerWaiterAgainstRacingCompleters) {
  expect_clean(join_race<Checked>(Waiter::kWorker));
}

TEST(JoinWordCheck, ExternalWaiterAgainstRacingCompleters) {
  expect_clean(join_race<Checked>(Waiter::kExternal));
}

TEST(JoinWordCheck, CompleterThatRereadsTheWordIsCaught) {
  expect_caught(join_race<RereadingWake>(Waiter::kWorker),
                "touched the group");
  expect_caught(join_race<RereadingWake>(Waiter::kExternal),
                "touched the group");
}

TEST(JoinWordCheck, SkippedWakeIsCaught) {
  expect_caught(join_race<NoWake>(Waiter::kExternal), "ended parked");
}

TEST(JoinWordCheck, ParkWithoutRecheckIsCaught) {
  expect_caught(join_race<BlindWait>(Waiter::kExternal), "ended parked");
}

}  // namespace
}  // namespace dws

// Model check of the coordinator's signal word as compiled: the
// production SignalWord template (src/runtime/coordinator.hpp) over the
// checker's instrumented atomics and its model of the policy's wait,
// timed wait and wake. The coordinator loops below mirror
// Coordinator::thread_main: test the word, sleep until a signal or the
// deadline, act on what is set.
//
// Scenarios:
//  - Nudge. Two submitters each publish work (a relaxed store, as
//    Scheduler::enqueue publishes a task before it nudges) and nudge,
//    against a coordinator that runs a step per nudge it takes until its
//    steps have seen both works. No period is due (a deadline of
//    time_point::max(), which the model never times out), so a nudge
//    that is lost, or taken without its work, leaves the coordinator
//    asleep with work no step saw: that work would wait for a timeout.
//  - Stop. A pusher publishes a push and arms the backlog watch, twice;
//    another thread nudges, then stops. The coordinator starts a watch on
//    an arm; a watch's wait is timed (its end may come at any point),
//    the wait between watches is untimed. Properties: stop() always ends
//    the loop, and a watch that consumed an arm sees the push behind it.
//
// Two seeded faults, each injected through the atomics policy, prove the
// scenarios see the bugs: a wake issued before the bit is set, and
// fetch_or made relaxed. Outside explore(), a unit test pins which signals
// wake the coordinator: arms during a watch do not.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "check/check.hpp"
#include "runtime/coordinator.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;
using Clock = std::chrono::steady_clock;

constexpr auto kNever = Clock::time_point::max();
constexpr auto kSoon = Clock::time_point{};  // any finite deadline

using Checked = check::CheckAtomicsPolicy;

/// Every fetch_or wakes the word's sleepers first and then sets its bits;
/// the wakes after it do nothing.
template <typename T>
struct WakeFirstAtomic : check::atomic<T> {
  using Base = check::atomic<T>;
  using Base::Base;
  T fetch_or(T v, std::memory_order mo = std::memory_order_seq_cst) {
    Checked::wake(*this);
    return Base::fetch_or(v, mo);
  }
};
struct WakeBeforeBit : Checked {
  template <typename T>
  using atomic = WakeFirstAtomic<T>;
  static void wake(atomic<std::uint32_t>& /*word*/) {}
};

/// fetch_or relaxed: a signal no longer publishes what came before it.
template <typename T>
struct RelaxedOrAtomic : check::atomic<T> {
  using Base = check::atomic<T>;
  using Base::Base;
  T fetch_or(T v, std::memory_order /*mo*/ = std::memory_order_seq_cst) {
    return Base::fetch_or(v, std::memory_order_relaxed);
  }
};
struct RelaxedOr : Checked {
  template <typename T>
  using atomic = RelaxedOrAtomic<T>;
};

Options exhaustive(int preemption_bound) {
  Options o;
  o.mode = Options::Mode::kExhaustive;
  o.preemption_bound = preemption_bound;
  return o;
}

using Scenario = std::function<void(Sim&)>;

void expect_clean(const Scenario& scenario, int preemption_bound) {
  const Result r = check::explore(exhaustive(preemption_bound), scenario);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.executions, 1);
}

void expect_caught(const Scenario& scenario, const std::string& what) {
  const Result r = check::explore(exhaustive(3), scenario);
  ASSERT_TRUE(r.failed) << "checker missed the seeded fault";
  EXPECT_NE(r.message.find(what), std::string::npos) << r.message;
  EXPECT_FALSE(r.schedule.empty());

  Options replay = exhaustive(3);
  replay.replay = r.schedule;
  const Result again = check::explore(replay, scenario);
  EXPECT_TRUE(again.failed);
  EXPECT_EQ(again.message, r.message);
  EXPECT_EQ(again.executions, 1);
}

// ---- Nudge: two submitters against the coordinator's steps ----

template <typename Policy>
struct Nudges {
  using Signals = rt::SignalWord<Policy>;
  Signals sig;
  typename Policy::template atomic<int> work[2];
  bool seen[2] = {false, false};
};

template <typename Policy>
Scenario nudges() {
  return [](Sim& sim) {
    using Signals = rt::SignalWord<Policy>;
    auto st = std::make_shared<Nudges<Policy>>();
    sim.spawn([st] {  // model thread 1: the coordinator
      while (!st->seen[0] || !st->seen[1]) {
        if ((st->sig.wait_until(kNever) & Signals::kNudge) == 0) continue;
        for (int i = 0; i < 2; ++i) {  // the step reads the demand
          if (st->work[i].load(std::memory_order_relaxed) != 0) {
            st->seen[i] = true;
          }
        }
      }
    });
    for (int i = 0; i < 2; ++i) {
      sim.spawn([st, i] {
        st->work[i].store(1, std::memory_order_relaxed);
        st->sig.nudge();
      });
    }
    sim.on_exit([] {
      check::expect(!check::ended_blocked(1),
                    "a nudge waited for a timeout: the coordinator sleeps "
                    "with work no step saw");
    });
  };
}

// ---- Stop: arms, a nudge and stop() against the watch loop ----

template <typename Policy>
struct Stops {
  rt::SignalWord<Policy> sig;
  typename Policy::template atomic<int> pushes{0};
};

template <typename Policy>
Scenario stops() {
  return [](Sim& sim) {
    using Signals = rt::SignalWord<Policy>;
    auto st = std::make_shared<Stops<Policy>>();
    sim.spawn([st] {  // model thread 1: the coordinator
      bool watching = false;
      for (;;) {
        const std::uint32_t s =
            st->sig.wait_until(watching ? kSoon : kNever);
        if ((s & Signals::kStop) != 0) return;
        if ((s & Signals::kNudge) != 0) {  // a step abandons the watch
          if (watching) (void)st->sig.end_watch();
          watching = false;
        } else if (!watching) {
          if ((s & Signals::kArmed) == 0) continue;
          st->sig.begin_watch();
          watching = true;
          check::expect(st->pushes.load(std::memory_order_relaxed) != 0,
                        "a watch missed the push that armed it");
        } else {  // returned with nothing set: the watch's end came
          (void)st->sig.end_watch();
          watching = false;
        }
      }
    });
    sim.spawn([st] {  // a worker's push edges
      for (int i = 1; i <= 2; ++i) {
        st->pushes.store(i, std::memory_order_relaxed);
        st->sig.arm();
      }
    });
    sim.spawn([st] {
      st->sig.nudge();
      st->sig.stop();
    });
    sim.on_exit([] {
      check::expect(!check::ended_blocked(1),
                    "stop() did not end the coordinator's loop");
    });
  };
}

TEST(SignalWordCheck, NudgesAreNeverLost) {
  expect_clean(nudges<Checked>(), 3);
}

TEST(SignalWordCheck, StopAlwaysEndsTheLoop) {
  // Bound 2: at 3 the watch loop's tree passes max_executions.
  expect_clean(stops<Checked>(), 2);
}

TEST(SignalWordCheck, WakeBeforeTheBitIsCaught) {
  expect_caught(nudges<WakeBeforeBit>(), "waited for a timeout");
  expect_caught(stops<WakeBeforeBit>(), "did not end");
}

TEST(SignalWordCheck, RelaxedFetchOrIsCaught) {
  expect_caught(nudges<RelaxedOr>(), "waited for a timeout");
  expect_caught(stops<RelaxedOr>(), "missed the push");
}

// ---- Which signals wake the coordinator (real atomics, no threads) ----

struct CountingWake : StdAtomicsPolicy {
  static inline int wakes = 0;
  static void wake(atomic<std::uint32_t>& /*word*/) { ++wakes; }
};

TEST(SignalWord, ArmsDuringAWatchDoNotWakeTheCoordinator) {
  using Signals = rt::SignalWord<CountingWake>;
  CountingWake::wakes = 0;
  Signals sig;
  sig.arm();  // no watch runs: the coordinator listens for arms
  EXPECT_EQ(CountingWake::wakes, 1);
  sig.arm();  // already armed
  EXPECT_EQ(CountingWake::wakes, 1);
  sig.begin_watch();
  sig.arm();  // a watch runs
  EXPECT_EQ(CountingWake::wakes, 1);
  EXPECT_TRUE(sig.end_watch());
  sig.nudge();
  sig.nudge();  // still pending: the first one's wake covers it
  EXPECT_EQ(CountingWake::wakes, 2);
  // Both pending signals end the wait at once; the nudge is consumed.
  const auto past = Clock::now();
  EXPECT_EQ(sig.wait_until(past), Signals::kNudge | Signals::kArmed);
  EXPECT_EQ(sig.wait_until(past), Signals::kArmed);
  sig.stop();
  EXPECT_EQ(CountingWake::wakes, 3);
  EXPECT_NE(sig.wait_until(past) & Signals::kStop, 0u);
}

}  // namespace
}  // namespace dws

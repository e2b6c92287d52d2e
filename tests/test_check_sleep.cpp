// Model check of the worker's sleep word as compiled: the production
// SleepWord template (src/runtime/sleep_word.hpp) over the checker's
// instrumented atomics and its model of the policy's wait and wake.
//
// Scenarios:
//  - Handshake. An external submitter (Scheduler::enqueue: bump the inbox,
//    scan the states, nudge only if none is Active) against two workers'
//    last search and handshake (Worker::go_to_sleep). Properties: no
//    execution ends with a queued task, no Active worker and no nudge,
//    and a worker that took the task is Active.
//  - Wake race. Two coordinator wake() calls against a worker that
//    publishes Sleeping, re-checks and blocks, twice. Properties: no
//    thread ends blocked on a word that is not Sleeping (no lost wakeup),
//    and wake() returns true at most once per sleep.
//  - Shutdown. A parked worker (EP) and a sleeping one against the
//    scheduler's shutdown: both return.
//  - Idle. The non-sleeping modes (CLASSIC, ABP, EP) block on the word
//    while the program has no unfinished task: an external submitter
//    (Scheduler::enqueue: bump the count, wake every word on its 0 -> 1
//    edge) against two workers that check, publish, re-check the count
//    and block; the task shuts the scheduler down. Properties: no worker
//    ends blocked while the count is non-zero, and every worker returns.
//
// Five seeded faults, each injected from here, prove the scenarios can
// see the bugs: a re-check of a word the submitter never writes, seq_cst
// weakened to release/acquire, only the seq_cst RMWs weakened (the
// re-check load stays seq_cst, so it must not act as a fence), the
// word's seq_cst loads made relaxed (the submitter's seq_cst bump must
// not act as a fence either), and a wake that does nothing. Outside
// explore(), a death test keeps the word's own assertion live.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>

#include "check/check.hpp"
#include "runtime/sleep_word.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;
using rt::SleepState;
using rt::SleepWord;

// ---- Fault-injection policies ----

template <template <typename> class A>
struct PolicyOf : check::CheckAtomicsPolicy {
  template <typename T>
  using atomic = A<T>;
};

[[nodiscard]] constexpr std::memory_order weaken(std::memory_order mo,
                                                 std::memory_order to) {
  return mo == std::memory_order_seq_cst ? to : mo;
}

/// Only the seq_cst RMWs downgraded to acq_rel: Sleeping and the
/// submitter's bump are published without the SC order, while both
/// re-reads stay seq_cst. A seq_cst load is no fence, so the
/// store-buffering outcome is allowed again.
template <typename T>
struct WeakSeqCstRmwAtomic : check::atomic<T> {
  using Base = check::atomic<T>;
  using Base::Base;
  T fetch_add(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return Base::fetch_add(v, weaken(mo, std::memory_order_acq_rel));
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order ok,
                             std::memory_order fail) {
    return Base::compare_exchange_weak(
        expected, desired, weaken(ok, std::memory_order_acq_rel), fail);
  }
};

/// Every seq_cst access downgraded: reads to acquire, writes to release,
/// RMWs to acq_rel. This allows the store-buffering outcome the Dekker
/// handshake exists to rule out.
template <typename T>
struct WeakSeqCstAtomic : WeakSeqCstRmwAtomic<T> {
  using Base = WeakSeqCstRmwAtomic<T>;
  using Base::Base;
  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    return Base::load(weaken(mo, std::memory_order_acquire));
  }
  bool compare_exchange_weak(T& expected, T desired, std::memory_order ok,
                             std::memory_order fail) {
    return Base::compare_exchange_weak(
        expected, desired, ok, weaken(fail, std::memory_order_acquire));
  }
};

/// The word's seq_cst loads made relaxed, and no other access: the word is
/// the only 32-bit atomic in these scenarios. In wake() this is the
/// submitter's read of the state after its seq_cst bump, which C++ lets
/// miss a Sleeping worker published just before (store buffering), so the
/// sleeper is never woken.
template <typename T>
struct RelaxedWordLoadAtomic : check::atomic<T> {
  using Base = check::atomic<T>;
  using Base::Base;
  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      mo = weaken(mo, std::memory_order_relaxed);
    }
    return Base::load(mo);
  }
};

/// wake does nothing: a blocked waiter is never woken.
struct NoWake : check::CheckAtomicsPolicy {
  static void wake(atomic<std::uint32_t>& /*word*/) {}
};

using Checked = check::CheckAtomicsPolicy;
using WeakSeqCst = PolicyOf<WeakSeqCstAtomic>;
using WeakSeqCstRmw = PolicyOf<WeakSeqCstRmwAtomic>;
using RelaxedWordLoad = PolicyOf<RelaxedWordLoadAtomic>;

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

// ---- Handshake: submitter against two workers ----

constexpr int kWorkers = 2;

template <typename Policy>
struct Handshake {
  typename Policy::template atomic<int> inbox{0};
  typename Policy::template atomic<int> never_written{0};
  SleepWord<Policy> words[kWorkers];
  bool nudged = false;
  bool ran[kWorkers] = {false, false};

  [[nodiscard]] bool someone_active() const {
    for (const auto& w : words) {
      if (w.state() == SleepState::kActive) return true;
    }
    return false;
  }
};

// One search of the inbox (Worker::find_task's poll): take the task if
// one is queued.
template <typename Policy>
bool try_take(Handshake<Policy>& st) {
  int one = 1;
  return st.inbox.load(std::memory_order_acquire) != 0 &&
         st.inbox.compare_exchange_weak(one, 0, std::memory_order_acq_rel,
                                        std::memory_order_acquire);
}

// A worker whose program just ran out of work: one last search, then the
// handshake. A worker the re-check keeps Active searches again and retries;
// two rounds bound the model.
template <typename Policy>
void handshake_worker(Handshake<Policy>& st, int w, bool recheck_inbox) {
  for (int round = 0; round < 2; ++round) {
    if (try_take(st)) {
      st.ran[w] = true;
      return;
    }
    const auto& recheck = recheck_inbox ? st.inbox : st.never_written;
    if (st.words[w].publish_sleeping(recheck, /*take_back=*/true)) continue;
    st.words[w].block();  // no waker here: ends blocked
    return;
  }
}

template <typename Policy>
Scenario handshake(bool recheck_inbox = true) {
  return [recheck_inbox](Sim& sim) {
    auto st = std::make_shared<Handshake<Policy>>();
    sim.spawn([st] {
      st->inbox.fetch_add(1, std::memory_order_seq_cst);
      if (!st->someone_active()) st->nudged = true;
    });
    for (int w = 0; w < kWorkers; ++w) {
      sim.spawn([st, w, recheck_inbox] {
        handshake_worker(*st, w, recheck_inbox);
      });
    }
    sim.on_exit([st] {
      const bool queued = st->inbox.load(std::memory_order_relaxed) != 0;
      check::expect(!queued || st->someone_active() || st->nudged,
                    "task stranded: queued, no Active worker, no nudge");
      for (int w = 0; w < kWorkers; ++w) {
        if (!st->ran[w]) continue;
        check::expect(!queued, "a taken task is still queued");
        check::expect(st->words[w].state() == SleepState::kActive,
                      "a worker ran the task while not Active");
      }
    });
  };
}

// ---- Wake race: two coordinator wakes against one sleeper ----

template <typename Policy>
struct WakeRace {
  typename Policy::template atomic<int> inbox{0};  // stays empty
  SleepWord<Policy> word;
  int sleeps = 0;
  int hits[2] = {0, 0};
};

template <typename Policy>
Scenario wake_race() {
  return [](Sim& sim) {
    auto st = std::make_shared<WakeRace<Policy>>();
    sim.spawn([st] {  // model thread 1: the worker
      for (int round = 0; round < 2; ++round) {
        (void)st->word.publish_sleeping(st->inbox, /*take_back=*/true);
        ++st->sleeps;
        st->word.block();
      }
    });
    for (int c = 0; c < 2; ++c) {
      sim.spawn([st, c] { st->hits[c] += st->word.wake() ? 1 : 0; });
    }
    sim.on_exit([st] {
      check::expect(
          !check::ended_blocked(1) || st->word.state() == SleepState::kSleeping,
          "lost wakeup: the worker ended blocked on a word that is Active");
      check::expect(st->hits[0] + st->hits[1] <= st->sleeps,
                    "a wake hit a worker that was not asleep");
    });
  };
}

// ---- Shutdown: a parked and a sleeping worker ----

template <typename Policy>
struct Shutdown {
  typename Policy::template atomic<int> inbox{0};
  SleepWord<Policy> parked;
  SleepWord<Policy> sleeper;
};

template <typename Policy>
Scenario shutdown() {
  return [](Sim& sim) {
    auto st = std::make_shared<Shutdown<Policy>>();
    sim.spawn([st] { st->parked.park(); });
    sim.spawn([st] {
      (void)st->sleeper.publish_sleeping(st->inbox, /*take_back=*/true);
      st->sleeper.block();
    });
    sim.spawn([st] {
      st->parked.shutdown();
      st->sleeper.shutdown();
    });
    sim.on_exit([] {
      check::expect(!check::ended_blocked(1) && !check::ended_blocked(2),
                    "a worker is still blocked after shutdown");
    });
  };
}

// ---- Idle: the non-sleeping modes' block on the unfinished-task count ----

template <typename Policy>
struct Idle {
  typename Policy::template atomic<int> pending{0};
  SleepWord<Policy> words[kWorkers];
};

// Worker::thread_main in CLASSIC, ABP or EP. The check is the take's CAS,
// whose failure reads the count as 0; then publish, re-check and block.
// The task is the program's last: running it drops the count to 0 and
// shuts the scheduler down, which bounds the model.
template <typename Policy>
void idle_worker(Idle<Policy>& st, int w) {
  SleepWord<Policy>& word = st.words[w];
  for (;;) {
    int one = 1;
    if (st.pending.compare_exchange_weak(one, 0, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      for (auto& each : st.words) each.shutdown();
      return;
    }
    if (word.publish_sleeping(st.pending, /*take_back=*/true)) continue;
    word.block();
    if (word.shut_down()) return;
  }
}

template <typename Policy>
Scenario idle() {
  return [](Sim& sim) {
    auto st = std::make_shared<Idle<Policy>>();
    sim.spawn([st] {  // model thread 1: the submitter
      if (st->pending.fetch_add(1, std::memory_order_seq_cst) == 0) {
        for (auto& word : st->words) (void)word.wake();
      }
    });
    for (int w = 0; w < kWorkers; ++w) {
      sim.spawn([st, w] { idle_worker(*st, w); });
    }
    sim.on_exit([st] {
      const bool blocked = check::ended_blocked(2) || check::ended_blocked(3);
      check::expect(!blocked || st->pending.load(std::memory_order_relaxed) == 0,
                    "task stranded: a worker ended blocked while pending");
      check::expect(!blocked, "a worker is still blocked after shutdown");
    });
  };
}

TEST(SleepWordCheck, SkippedNudgeNeverStrandsATask) {
  expect_clean(handshake<Checked>());
}

TEST(SleepWordCheck, RecheckOfAnUnwrittenWordIsCaught) {
  expect_caught(handshake<Checked>(/*recheck_inbox=*/false), "stranded");
}

TEST(SleepWordCheck, ReleaseAcquireHandshakeIsCaught) {
  expect_caught(handshake<WeakSeqCst>(), "stranded");
}

TEST(SleepWordCheck, HalfWeakenedHandshakeIsCaught) {
  expect_caught(handshake<WeakSeqCstRmw>(), "stranded");
}

TEST(SleepWordCheck, WakeRacingTheSleeperIsNeverLost) {
  expect_clean(wake_race<Checked>());
}

TEST(SleepWordCheck, NoOpNotifyIsCaught) {
  expect_caught(wake_race<NoWake>(), "lost wakeup");
  expect_caught(shutdown<NoWake>(), "still blocked");
}

TEST(SleepWordCheck, ShutdownReleasesParkedAndSleepingWorkers) {
  expect_clean(shutdown<Checked>());
}

TEST(SleepWordCheck, IdleWorkersNeverStrandATaskAndReturnAtShutdown) {
  expect_clean(idle<Checked>());
}

TEST(SleepWordCheck, WeakenedIdleHandshakeIsCaught) {
  expect_caught(idle<WeakSeqCst>(), "stranded");
  expect_caught(idle<WeakSeqCstRmw>(), "stranded");
}

TEST(SleepWordCheck, RelaxedWakeReadIsCaught) {
  // The submitter's seq_cst bump must not act as a fence for wake()'s
  // relaxed read of the word.
  expect_caught(idle<RelaxedWordLoad>(), "stranded");
}

// Only the owner leaves Active: a second publish without a wake in between
// breaks that, and the word's assertion aborts. Run outside explore(),
// where the checker's atomics act as plain ones.
TEST(SleepWordDeathTest, SecondPublishWithoutAWakeAborts) {
  SleepWord<Checked> word;
  check::atomic<int> count{0};
  (void)word.publish_sleeping(count, /*take_back=*/true);
  EXPECT_DEATH((void)word.publish_sleeping(count, /*take_back=*/true),
               "kActive");
}

}  // namespace
}  // namespace dws
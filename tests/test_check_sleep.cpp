// Model check of the sleep handshake between a program's last searching
// worker and an external submitter (Worker::go_to_sleep and
// Scheduler::enqueue).
//
// The submitter skips the coordinator nudge while it sees an Active
// worker, because that worker takes the task from the inbox itself. That
// is only safe with a Dekker-style handshake:
//
//   submitter: inbox += 1 (seq_cst); scan the worker states (seq_cst);
//              nudge only if none is Active.
//   worker:    state = Sleeping (seq_cst); re-read the inbox (seq_cst);
//              non-empty -> back to Active, keep the core, take the task;
//              empty     -> release the core and sleep.
//
// Property: no execution ends with a queued task, no Active worker and no
// nudge (such a task would wait for the coordinator's next periodic tick).
// Two seeded faults prove the scenario can see the bug: dropping the
// worker's re-check, and weakening the handshake to release/acquire
// (which allows the store-buffering outcome where both sides read stale).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>

#include "check/check.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;

constexpr int kActive = 0;
constexpr int kSleeping = 1;
constexpr int kWorkers = 2;

struct Variant {
  bool recheck = true;
  std::memory_order store = std::memory_order_seq_cst;  // publishes
  std::memory_order load = std::memory_order_seq_cst;   // reads back
};

struct State {
  check::atomic<int> inbox{0};
  check::atomic<int> state0{kActive};
  check::atomic<int> state1{kActive};
  bool nudged = false;
  bool ran = false;

  check::atomic<int>& state(int w) { return w == 0 ? state0 : state1; }
};

// One search of the inbox: take the task if one is queued.
bool try_take(State& st, const Variant& v) {
  int one = 1;
  return st.inbox.load(v.load) != 0 &&
         st.inbox.compare_exchange_strong(one, 0, std::memory_order_acq_rel,
                                          std::memory_order_acquire);
}

// A worker whose program just ran out of work: one last search, then the
// sleep handshake. A worker the re-check sends back searches again and
// retries the handshake; two rounds bound the model.
void worker(State& st, int w, const Variant& v) {
  for (int round = 0; round < 2; ++round) {
    if (try_take(st, v)) {
      st.ran = true;
      return;
    }
    st.state(w).store(kSleeping, v.store);
    if (v.recheck && st.inbox.load(v.load) != 0) {
      st.state(w).store(kActive, std::memory_order_release);
      continue;
    }
    return;  // releases its core and sleeps until the coordinator wakes it
  }
}

void submitter(State& st, const Variant& v) {
  st.inbox.fetch_add(1, v.store);
  bool someone_active = false;
  for (int w = 0; w < kWorkers; ++w) {
    if (st.state(w).load(v.load) == kActive) someone_active = true;
  }
  if (!someone_active) st.nudged = true;
}

auto scenario(Variant v) {
  return [v](Sim& sim) {
    auto st = std::make_shared<State>();
    sim.spawn([st, v] { submitter(*st, v); });
    for (int w = 0; w < kWorkers; ++w) {
      sim.spawn([st, v, w] { worker(*st, w, v); });
    }
    sim.on_exit([st] {
      const bool queued = st->inbox.load(std::memory_order_relaxed) != 0;
      bool someone_active = false;
      for (int w = 0; w < kWorkers; ++w) {
        if (st->state(w).load(std::memory_order_relaxed) == kActive) {
          someone_active = true;
        }
      }
      check::expect(!queued || someone_active || st->nudged,
                    "task stranded: queued, no Active worker, no nudge");
      check::expect(!st->ran || !queued, "a taken task is still queued");
    });
  };
}

Options exhaustive() {
  Options o;
  o.mode = Options::Mode::kExhaustive;
  o.preemption_bound = 3;
  return o;
}

void expect_caught(const Variant& v) {
  const Result r = check::explore(exhaustive(), scenario(v));
  ASSERT_TRUE(r.failed) << "checker missed the seeded handshake fault";
  EXPECT_NE(r.message.find("stranded"), std::string::npos) << r.message;
  EXPECT_FALSE(r.schedule.empty());

  Options replay = exhaustive();
  replay.replay = r.schedule;
  const Result again = check::explore(replay, scenario(v));
  EXPECT_TRUE(again.failed);
  EXPECT_EQ(again.message, r.message);
  EXPECT_EQ(again.executions, 1);
}

TEST(SleepHandshakeCheck, SkippedNudgeNeverStrandsATask) {
  const Result r = check::explore(exhaustive(), scenario(Variant{}));
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.executions, 1);
}

TEST(SleepHandshakeCheck, MissingRecheckIsCaught) {
  expect_caught(Variant{.recheck = false});
}

TEST(SleepHandshakeCheck, ReleaseAcquireHandshakeIsCaught) {
  expect_caught(Variant{.store = std::memory_order_release,
                        .load = std::memory_order_acquire});
}

}  // namespace
}  // namespace dws

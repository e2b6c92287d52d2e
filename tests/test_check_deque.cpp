// Model checks for ChaseLevDeque: the production algorithm compiled over
// check::atomic via the policy parameter, explored exhaustively for small
// scenarios. The exactly-once property (every pushed item leaves the deque
// through exactly one pop or steal) is the linearizability core of the
// work-stealing runtime; grow() buffer retirement and the take-vs-steal
// last-element race get dedicated scenarios.
//
// WeakenedFenceIsCaught is the harness acceptance test: the same scenario
// run over a policy whose seq_cst fences are downgraded to acq_rel must
// fail with a replayable schedule, proving the checker can see the bug
// class the fences exist to prevent.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "runtime/deque.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;

Options exhaustive(int preemption_bound = 2, long max_executions = 200000) {
  Options o;
  o.mode = Options::Mode::kExhaustive;
  o.preemption_bound = preemption_bound;
  o.max_executions = max_executions;
  return o;
}

// Shared scenario: `items` values are pushed during setup (controller,
// quiescent), then the owner thread performs `owner_pops` pops while each
// of `thieves` thief threads attempts `steals_per_thief` steals. On exit
// the controller drains the deque and asserts every item was consumed
// exactly once and nothing was invented.
template <typename Policy>
struct ExactlyOnce {
  using Deque = rt::ChaseLevDeque<int, Policy>;

  int items = 2;
  int owner_pops = 1;
  int thieves = 1;
  int steals_per_thief = 1;
  std::size_t capacity = 8;

  void operator()(Sim& sim) const {
    struct State {
      explicit State(std::size_t cap) : dq(cap) {}
      Deque dq;
      std::vector<int> consumed;  // plain memory: threads are serialized
    };
    auto st = std::make_shared<State>(capacity);
    for (int i = 1; i <= items; ++i) st->dq.push(i);

    sim.spawn([st, n = owner_pops] {
      for (int i = 0; i < n; ++i) {
        if (auto v = st->dq.pop()) st->consumed.push_back(*v);
      }
    });
    for (int th = 0; th < thieves; ++th) {
      sim.spawn([st, n = steals_per_thief] {
        for (int i = 0; i < n; ++i) {
          if (auto v = st->dq.steal()) st->consumed.push_back(*v);
        }
      });
    }

    sim.on_exit([st, total = items] {
      while (auto v = st->dq.pop()) st->consumed.push_back(*v);
      check::expect(
          static_cast<int>(st->consumed.size()) == total,
          "item count mismatch: consumed != pushed (lost or duplicated)");
      std::map<int, int> seen;
      for (int v : st->consumed) ++seen[v];
      for (int i = 1; i <= total; ++i) {
        check::expect(seen.count(i) == 1 && seen[i] == 1,
                      "item not consumed exactly once");
      }
    });
  }
};

using CheckedScenario = ExactlyOnce<check::CheckAtomicsPolicy>;
using WeakScenario = ExactlyOnce<check::WeakenSeqCstFences<>>;

TEST(ChaseLevDequeCheck, TakeVsStealLastElement) {
  CheckedScenario s;
  s.items = 1;
  s.owner_pops = 1;
  s.thieves = 1;
  s.steals_per_thief = 1;
  const Result r = check::explore(exhaustive(3), s);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated) << "execution budget exhausted";
  EXPECT_GT(r.executions, 1);
}

TEST(ChaseLevDequeCheck, PopVsStealTwoItems) {
  CheckedScenario s;
  s.items = 2;
  s.owner_pops = 2;
  s.thieves = 1;
  s.steals_per_thief = 1;
  const Result r = check::explore(exhaustive(2), s);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
}

TEST(ChaseLevDequeCheck, TwoThievesSingleItem) {
  CheckedScenario s;
  s.items = 1;
  s.owner_pops = 0;
  s.thieves = 2;
  s.steals_per_thief = 1;
  const Result r = check::explore(exhaustive(3), s);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
}

TEST(ChaseLevDequeCheck, TwoThievesTwoItemsWithOwner) {
  CheckedScenario s;
  s.items = 2;
  s.owner_pops = 1;
  s.thieves = 2;
  s.steals_per_thief = 1;
  const Result r = check::explore(exhaustive(2), s);
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
}

// grow() while a thief is mid-steal: capacity 2, owner pushes two more
// in-thread (forcing a grow with live elements) while the thief races.
// Retirement bound: every retired buffer is half the next one, so the
// retired total stays below the live capacity (2x high-water overall).
TEST(ChaseLevDequeCheck, GrowUnderConcurrentSteal) {
  using Deque = rt::ChaseLevDeque<int, check::CheckAtomicsPolicy>;
  const Result r = check::explore(exhaustive(2), [](Sim& sim) {
    struct State {
      State() : dq(2) {}
      Deque dq;
      std::vector<int> consumed;
    };
    auto st = std::make_shared<State>();
    st->dq.push(1);
    st->dq.push(2);  // full at capacity 2

    sim.spawn([st] {
      st->dq.push(3);  // forces grow(2 -> 4) with both items live
      st->dq.push(4);
      st->dq.push(5);  // forces grow(4 -> 8)
    });
    sim.spawn([st] {
      for (int i = 0; i < 2; ++i) {
        if (auto v = st->dq.steal()) st->consumed.push_back(*v);
      }
    });

    sim.on_exit([st] {
      while (auto v = st->dq.pop()) st->consumed.push_back(*v);
      check::expect(st->consumed.size() == 5, "items lost across grow()");
      std::map<int, int> seen;
      for (int v : st->consumed) ++seen[v];
      for (int i = 1; i <= 5; ++i) {
        check::expect(seen[i] == 1, "item not consumed exactly once");
      }
      check::expect(st->dq.retired_count() >= 1, "grow() did not retire");
      check::expect(st->dq.retired_capacity_total() < st->dq.capacity(),
                    "retired memory exceeds documented bound");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
}

// Acceptance: downgrading the seq_cst fences in pop()/steal() to acq_rel
// breaks the owner/thief arbitration — the checker must catch it and the
// failure must replay from the recorded schedule.
TEST(ChaseLevDequeCheck, WeakenedFenceIsCaught) {
  WeakScenario weak;
  weak.items = 2;
  weak.owner_pops = 1;
  weak.thieves = 1;
  weak.steals_per_thief = 2;

  const Result r = check::explore(exhaustive(3), weak);
  ASSERT_TRUE(r.failed)
      << "checker failed to find the seeded weak-memory bug";
  EXPECT_FALSE(r.schedule.empty());
  EXPECT_FALSE(r.trace.empty());

  // The recorded schedule deterministically reproduces the failure.
  Options replay = exhaustive(3);
  replay.replay = r.schedule;
  const Result again = check::explore(replay, weak);
  EXPECT_TRUE(again.failed);
  EXPECT_EQ(again.message, r.message);
  EXPECT_EQ(again.executions, 1);

  // Control: the identical scenario with the real fences passes clean.
  CheckedScenario sound;
  sound.items = 2;
  sound.owner_pops = 1;
  sound.thieves = 1;
  sound.steals_per_thief = 2;
  const Result ok = check::explore(exhaustive(3), sound);
  EXPECT_FALSE(ok.failed) << ok.message << "\n" << ok.trace;
  EXPECT_FALSE(ok.truncated);
}

// Random mode also lands on the seeded bug, with a stable failing seed.
TEST(ChaseLevDequeCheck, WeakenedFenceIsCaughtByRandomSearch) {
  WeakScenario weak;
  weak.items = 2;
  weak.owner_pops = 1;
  weak.thieves = 1;
  weak.steals_per_thief = 2;

  Options o;
  o.mode = Options::Mode::kRandom;
  o.iterations = 4000;
  o.seed = 42;
  const Result r = check::explore(o, weak);
  EXPECT_TRUE(r.failed);
  if (r.failed) {
    Options rerun = o;
    rerun.iterations = 1;
    rerun.seed = r.failing_seed;
    const Result again = check::explore(rerun, weak);
    EXPECT_TRUE(again.failed);
  }
}

}  // namespace
}  // namespace dws

// Model checks for the core-allocation-table CAS protocol (§3.1/§3.3),
// instantiated over the checker's atomics via CoreOps<CheckAtomicsPolicy>.
// These are the exact production transitions core_table.cpp compiles (same
// template, different policy), so a clean pass here covers the coordinator
// claim/reclaim/release races directly.
#include <gtest/gtest.h>

#include <memory>

#include "check/check.hpp"
#include "core/core_ops.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;

// Default slot layout (cacheline-strided since shm layout revision 2).
using Ops = CoreOps<check::CheckAtomicsPolicy>;

Options exhaustive(int preemption_bound = 3) {
  Options o;
  o.mode = Options::Mode::kExhaustive;
  o.preemption_bound = preemption_bound;
  return o;
}

struct Table {
  explicit Table(unsigned n) : num_cores(n), slots(new Ops::Slot[n]) {}
  unsigned num_cores;
  std::unique_ptr<Ops::Slot[]> slots;  // default-init == kNoProgram
};

// Two coordinators race try_claim on the same free core: exactly one must
// win, and the slot must hold the winner's pid.
TEST(CoreTableCheck, ClaimRaceHasOneWinner) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    struct State {
      State() : t(2) {}
      Table t;
      bool won1 = false, won2 = false;
    };
    auto st = std::make_shared<State>();
    sim.spawn([st] { st->won1 = Ops::try_claim(st->t.slots.get(), 0, 1); });
    sim.spawn([st] { st->won2 = Ops::try_claim(st->t.slots.get(), 0, 2); });
    sim.on_exit([st] {
      check::expect(st->won1 != st->won2, "claim must have exactly one winner");
      const ProgramId user = Ops::user_of(st->t.slots.get(), 0);
      check::expect(user == (st->won1 ? 1u : 2u),
                    "slot does not record the claim winner");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.executions, 1);
}

// Owner reclaiming its borrowed home core vs. the borrower releasing it.
// 2 cores, 2 programs: core 0 homes program 1 and is currently used by
// program 2. Exactly one of {reclaim, release} transitions the slot.
TEST(CoreTableCheck, ReclaimVsRelease) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    struct State {
      State() : t(2) { t.slots[0].user.store(2, std::memory_order_relaxed); }
      Table t;
      bool reclaimed = false, released = false;
    };
    auto st = std::make_shared<State>();
    sim.spawn([st] {
      st->reclaimed = Ops::try_reclaim(st->t.slots.get(), 2, 2, 0, 1);
    });
    sim.spawn([st] {
      st->released = Ops::release(st->t.slots.get(), 0, 2);
    });
    sim.on_exit([st] {
      check::expect(st->reclaimed != st->released,
                    "reclaim and release must arbitrate via CAS");
      const ProgramId user = Ops::user_of(st->t.slots.get(), 0);
      check::expect(user == (st->reclaimed ? 1u : kNoProgram),
                    "slot state inconsistent with CAS outcome");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
}

// Borrower releases while a third program tries to claim the freed core
// and the home owner tries to reclaim it. The slot must always end in a
// state explained by the winners' reported outcomes. Note reclaim and
// claim CAN both win — release(2->free), claim(free->3), reclaim(3->1) is
// a legal serialization (the checker found this when an earlier version
// of this test wrongly asserted mutual exclusion). What the protocol does
// guarantee: a successful reclaim is the final transition (nothing CASes
// away from the home owner here), and a successful claim implies the
// release landed first.
TEST(CoreTableCheck, ClaimVsReclaimAfterRelease) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    struct State {
      State() : t(3) { t.slots[0].user.store(2, std::memory_order_relaxed); }
      Table t;  // 3 cores, 3 programs: core 0 homes program 1
      bool released = false, reclaimed = false, claimed = false;
    };
    auto st = std::make_shared<State>();
    sim.spawn([st] { st->released = Ops::release(st->t.slots.get(), 0, 2); });
    sim.spawn([st] {
      st->reclaimed = Ops::try_reclaim(st->t.slots.get(), 3, 3, 0, 1);
    });
    sim.spawn([st] { st->claimed = Ops::try_claim(st->t.slots.get(), 0, 3); });
    sim.on_exit([st] {
      // claim(free->3) needs the slot free, which only release provides.
      check::expect(!st->claimed || st->released,
                    "claim won without a preceding release");
      // Once reclaimed, nothing can transition the slot away from the
      // home owner (release expects 2, claim expects free), so the
      // winners determine the final user: reclaim > claim > release.
      const ProgramId user = Ops::user_of(st->t.slots.get(), 0);
      ProgramId expected = 2;  // nothing won: borrower keeps it
      if (st->reclaimed) {
        expected = 1;
      } else if (st->claimed) {
        expected = 3;
      } else if (st->released) {
        expected = kNoProgram;
      }
      check::expect(user == expected, "slot state inconsistent with winners");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
}

// Occupancy accounting stays consistent under a claim/claim/release storm:
// successful transitions alone explain the final occupancy.
TEST(CoreTableCheck, OccupancyMatchesSuccessfulTransitions) {
  const Result r = check::explore(exhaustive(2), [](Sim& sim) {
    struct State {
      State() : t(2) {}
      Table t;
      int claims_ok = 0, releases_ok = 0;
    };
    auto st = std::make_shared<State>();
    sim.spawn([st] {
      if (Ops::try_claim(st->t.slots.get(), 0, 1)) ++st->claims_ok;
      if (Ops::release(st->t.slots.get(), 0, 1)) ++st->releases_ok;
    });
    sim.spawn([st] {
      if (Ops::try_claim(st->t.slots.get(), 0, 2)) ++st->claims_ok;
      if (Ops::try_claim(st->t.slots.get(), 1, 2)) ++st->claims_ok;
    });
    sim.on_exit([st] {
      const unsigned occupied =
          st->t.num_cores - Ops::count_free(st->t.slots.get(), st->t.num_cores);
      check::expect(
          st->claims_ok - st->releases_ok == static_cast<int>(occupied),
          "occupancy does not match successful transitions");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
}

// Negative control: a naive load-then-store claim (no CAS) lets both
// coordinators win — the checker must flag it.
TEST(CoreTableCheck, NaiveClaimImplementationIsCaught) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    struct State {
      State() : t(1) {}
      Table t;
      bool won1 = false, won2 = false;
    };
    auto st = std::make_shared<State>();
    auto naive_claim = [st](ProgramId pid, bool* won) {
      if (st->t.slots[0].user.load(std::memory_order_acquire) == kNoProgram) {
        st->t.slots[0].user.store(pid, std::memory_order_release);
        *won = true;
      }
    };
    sim.spawn([st, naive_claim] { naive_claim(1, &st->won1); });
    sim.spawn([st, naive_claim] { naive_claim(2, &st->won2); });
    sim.on_exit([st] {
      check::expect(!(st->won1 && st->won2),
                    "naive claim let two programs own one core");
    });
  });
  EXPECT_TRUE(r.failed) << "checker missed the naive-claim double win";
  EXPECT_FALSE(r.schedule.empty());
}

// count_borrowed_from / count_active agree with the home map after a
// quiescent sequence of transitions (exercises the read-side helpers over
// the instrumented atomics; single-threaded, so one execution suffices).
TEST(CoreTableCheck, AccountingHelpersQuiescent) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    auto t = std::make_shared<Table>(4);
    // 4 cores, 2 programs: cores {0,1} home program 1, {2,3} program 2.
    ASSERT_TRUE(Ops::try_claim(t->slots.get(), 0, 1));
    ASSERT_TRUE(Ops::try_claim(t->slots.get(), 1, 2));  // borrows from 1
    ASSERT_TRUE(Ops::try_claim(t->slots.get(), 2, 2));
    sim.on_exit([t] {
      check::expect(Ops::count_free(t->slots.get(), 4) == 1, "count_free");
      check::expect(Ops::count_borrowed_from(t->slots.get(), 4, 2, 1) == 1,
                    "count_borrowed_from");
      check::expect(Ops::count_active(t->slots.get(), 4, 2) == 2,
                    "count_active");
      check::expect(core_home_of(1, 4, 2) == 1 && core_home_of(2, 4, 2) == 2,
                    "home map");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
}

// Stale-sweep recovery race: program 2 crashed while holding core 0, but
// its worker had *just* issued the cooperative release(0, 2) before dying.
// A surviving sweeper, having confirmed program 2 dead, force-releases the
// same slot with the identical release(0, 2) CAS, while the survivor
// (program 1) concurrently claims freed cores. Invariants: exactly one of
// the two releases wins (freed cores are never double-counted), and the
// slot never ends the execution owned by the dead program.
TEST(CoreTableCheck, StaleSweepVsCooperativeRelease) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    struct State {
      State() : t(2) { t.slots[0].user.store(2, std::memory_order_relaxed); }
      Table t;
      bool coop = false;    // dying owner's in-flight release
      bool forced = false;  // sweeper's force-release
      bool claimed = false;  // survivor snapping up the freed core
    };
    auto st = std::make_shared<State>();
    sim.spawn([st] { st->coop = Ops::release(st->t.slots.get(), 0, 2); });
    sim.spawn([st] { st->forced = Ops::release(st->t.slots.get(), 0, 2); });
    sim.spawn([st] { st->claimed = Ops::try_claim(st->t.slots.get(), 0, 1); });
    sim.on_exit([st] {
      check::expect(st->coop != st->forced,
                    "exactly one release must win (no double-free count)");
      const ProgramId user = Ops::user_of(st->t.slots.get(), 0);
      check::expect(user != 2u, "dead program must not end up owning a core");
      check::expect(user == (st->claimed ? 1u : kNoProgram),
                    "slot must end free or owned by the survivor");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.executions, 1);
}

// Stale sweep vs the home owner's reclaim. Core 0 homes program 1 but is
// held by crashed program 2. The sweeper force-releases (2 -> free) while
// program 1 reclaims its home core (2 -> 1) — both target the same slot
// value, so CAS arbitration must hand it to exactly one path and the core
// must never be lost or duplicated.
TEST(CoreTableCheck, StaleSweepVsHomeReclaim) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    struct State {
      State() : t(2) { t.slots[0].user.store(2, std::memory_order_relaxed); }
      Table t;
      bool forced = false;
      bool reclaimed = false;
    };
    auto st = std::make_shared<State>();
    sim.spawn([st] { st->forced = Ops::release(st->t.slots.get(), 0, 2); });
    sim.spawn([st] {
      st->reclaimed = Ops::try_reclaim(st->t.slots.get(), 2, 2, 0, 1);
    });
    sim.on_exit([st] {
      check::expect(st->forced != st->reclaimed,
                    "force-release and reclaim must arbitrate via CAS");
      const ProgramId user = Ops::user_of(st->t.slots.get(), 0);
      check::expect(user == (st->reclaimed ? 1u : kNoProgram),
                    "core lost or duplicated in sweep-vs-reclaim race");
      check::expect(user != 2u, "dead program must not keep the core");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
}

// ---- Release / reclaim / claim storm over the strided slots ----
//
// Borrower (2) releases its borrowed core, home owner (1) reclaims it,
// and a thief-side claim races for the freed slot — the same triangle as
// ClaimVsReclaimAfterRelease, on 2 cores / 2 programs, driven directly
// over the cacheline-strided slot array the shm table lays out.
TEST(CoreTableCheck, ReleaseReclaimClaimStorm) {
  const Result r = check::explore(exhaustive(), [](Sim& sim) {
    struct State {
      State() : slots(new Ops::Slot[2]) {
        slots[0].user.store(2, std::memory_order_relaxed);
      }
      std::unique_ptr<Ops::Slot[]> slots;
      bool released = false, reclaimed = false, claimed = false;
    };
    auto st = std::make_shared<State>();
    sim.spawn([st] { st->released = Ops::release(st->slots.get(), 0, 2); });
    sim.spawn(
        [st] { st->reclaimed = Ops::try_reclaim(st->slots.get(), 2, 2, 0, 1); });
    sim.spawn([st] { st->claimed = Ops::try_claim(st->slots.get(), 0, 1); });
    sim.on_exit([st] {
      check::expect(!st->claimed || st->released,
                    "claim won without a preceding release");
      const ProgramId user = Ops::user_of(st->slots.get(), 0);
      ProgramId expected = 2;
      if (st->reclaimed || st->claimed) {
        expected = 1;
      } else if (st->released) {
        expected = kNoProgram;
      }
      check::expect(user == expected, "slot state inconsistent with winners");
      check::expect(user != 2u || (!st->released && !st->reclaimed),
                    "transitions lost in the storm");
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_GT(r.executions, 1);
}

}  // namespace
}  // namespace dws

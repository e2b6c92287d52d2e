// Tests for the coordinator wake-up model (Eq. 1 + the three §3.3 cases),
// for CoordinatorDriver's table interaction, including the paper's three
// constraints as properties, and for the shared coordinator step.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/coordinator_policy.hpp"
#include "core/topology.hpp"

namespace dws {
namespace {

DemandSnapshot snap(std::uint64_t nb, unsigned na, unsigned nf, unsigned nr,
                    unsigned sleeping) {
  return DemandSnapshot{nb, na, nf, nr, sleeping};
}

TEST(CoordinatorPolicy, NoBacklogNoWake) {
  CoordinatorPolicy p;
  EXPECT_EQ(p.decide(snap(0, 4, 8, 2, 12)).total(), 0u);
}

TEST(CoordinatorPolicy, NoSleepersNoWake) {
  CoordinatorPolicy p;
  EXPECT_EQ(p.decide(snap(100, 4, 8, 2, 0)).total(), 0u);
}

TEST(CoordinatorPolicy, SmallBacklogPerWorkerStaysAsleep) {
  // 3 tasks across 4 active workers: N_w = 3/4 < 1, no wake (the paper's
  // "only a few tasks on average" guard).
  CoordinatorPolicy p;
  EXPECT_EQ(p.decide(snap(3, 4, 8, 2, 12)).total(), 0u);
}

TEST(CoordinatorPolicy, Case1AllFromFreeCores) {
  // N_w = 16/4 = 4 <= N_f = 8: wake 4 on free cores, reclaim none.
  CoordinatorPolicy p;
  const WakeDecision d = p.decide(snap(16, 4, 8, 2, 12));
  EXPECT_EQ(d.wake_on_free, 4u);
  EXPECT_EQ(d.wake_on_reclaim, 0u);
}

TEST(CoordinatorPolicy, Case2TopsUpWithReclaims) {
  // N_w = 24/4 = 6, N_f = 4, N_r = 3: 4 free + 2 reclaimed.
  CoordinatorPolicy p;
  const WakeDecision d = p.decide(snap(24, 4, 4, 3, 12));
  EXPECT_EQ(d.wake_on_free, 4u);
  EXPECT_EQ(d.wake_on_reclaim, 2u);
}

TEST(CoordinatorPolicy, Case2BoundaryUsesAllReclaimable) {
  // N_w = N_f + N_r exactly.
  CoordinatorPolicy p;
  const WakeDecision d = p.decide(snap(28, 4, 4, 3, 12));
  EXPECT_EQ(d.wake_on_free, 4u);
  EXPECT_EQ(d.wake_on_reclaim, 3u);
}

TEST(CoordinatorPolicy, Case3CapsAtFreePlusReclaimable) {
  // N_w = 400/4 = 100 > N_f + N_r = 7: take everything allowed, no more.
  CoordinatorPolicy p;
  const WakeDecision d = p.decide(snap(400, 4, 4, 3, 12));
  EXPECT_EQ(d.wake_on_free, 4u);
  EXPECT_EQ(d.wake_on_reclaim, 3u);
}

TEST(CoordinatorPolicy, CappedBySleepingWorkers) {
  // Demand says wake 8, but only 2 workers are asleep.
  CoordinatorPolicy p;
  const WakeDecision d = p.decide(snap(32, 4, 8, 0, 2));
  EXPECT_EQ(d.total(), 2u);
}

TEST(CoordinatorPolicy, StalledProgramUsesBacklogAsDemand) {
  // N_a = 0: all workers asleep but tasks queued (e.g. an external enqueue
  // raced the last sleep). The program must not deadlock: backlog itself
  // drives the wake.
  CoordinatorPolicy p;
  const WakeDecision d = p.decide(snap(5, 0, 8, 0, 16));
  EXPECT_EQ(d.total(), 5u);
  EXPECT_EQ(d.wake_on_free, 5u);
}

TEST(CoordinatorPolicy, StalledProgramWakesAtLeastOneWithSingleTask) {
  CoordinatorPolicy p;
  const WakeDecision d = p.decide(snap(1, 0, 1, 0, 16));
  EXPECT_EQ(d.total(), 1u);
}

TEST(CoordinatorPolicy, DemandRoundingIsNearest) {
  CoordinatorPolicy p;
  // 10/4 = 2.5 rounds (half away from zero) to 3, not truncates to 2.
  EXPECT_EQ(p.decide(snap(10, 4, 8, 0, 8)).total(), 3u);
  // 9/4 = 2.25 rounds down to 2.
  EXPECT_EQ(p.decide(snap(9, 4, 8, 0, 8)).total(), 2u);
}

// Property sweep over a grid of snapshots: the three paper constraints
// must hold for every input.
class CoordinatorPolicyProperty
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(CoordinatorPolicyProperty, RespectsAllThreeConstraints) {
  const auto [nb, na, nf, nr] = GetParam();
  const unsigned sleeping = 16;
  CoordinatorPolicy p;
  const auto s = snap(static_cast<std::uint64_t>(nb),
                      static_cast<unsigned>(na), static_cast<unsigned>(nf),
                      static_cast<unsigned>(nr), sleeping);
  const WakeDecision d = p.decide(s);

  // Constraint 3: never take cores beyond free + own-reclaimable.
  EXPECT_LE(d.wake_on_free, s.free_cores);
  EXPECT_LE(d.wake_on_reclaim, s.reclaimable_cores);
  // Feasibility: never wake more than the sleeping workers.
  EXPECT_LE(d.total(), s.sleeping_workers);
  // Constraint 2: reclaims only happen once free cores are exhausted.
  if (d.wake_on_reclaim > 0) {
    EXPECT_EQ(d.wake_on_free, s.free_cores);
  }
  // Zero backlog must never wake anyone.
  if (s.queued_tasks == 0) {
    EXPECT_EQ(d.total(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CoordinatorPolicyProperty,
    ::testing::Combine(::testing::Values(0, 1, 3, 8, 64, 1000),   // N_b
                       ::testing::Values(0, 1, 4, 16),            // N_a
                       ::testing::Values(0, 1, 4, 16),            // N_f
                       ::testing::Values(0, 1, 4, 8)));           // N_r

// Constraint 1 as a monotonicity property: more queued tasks never wakes
// fewer workers (all else equal).
TEST(CoordinatorPolicy, WakeCountIsMonotoneInBacklog) {
  CoordinatorPolicy p;
  unsigned prev = 0;
  for (std::uint64_t nb = 0; nb <= 200; ++nb) {
    const unsigned total = p.decide(snap(nb, 4, 16, 0, 16)).total();
    EXPECT_GE(total, prev) << "backlog " << nb;
    prev = total;
  }
}

// ---- CoordinatorDriver against a real table ----

TEST(CoordinatorDriver, AcquiresRequestedFreeCores) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  CoordinatorDriver drv(t, /*pid=*/1);
  const auto won = drv.acquire(WakeDecision{.wake_on_free = 4});
  EXPECT_EQ(won.claimed.size(), 4u);
  EXPECT_TRUE(won.reclaimed.empty());
  std::set<CoreId> unique(won.claimed.begin(), won.claimed.end());
  EXPECT_EQ(unique.size(), 4u);
  for (CoreId c : won.claimed) EXPECT_EQ(t.user_of(c), 1u);
  EXPECT_EQ(t.count_free(), 12u);
}

TEST(CoordinatorDriver, AcquireStopsWhenTableRunsDry) {
  CoreTableLocal local(4, 2);
  CoreTable& t = local.table();
  for (CoreId c = 0; c < 3; ++c) ASSERT_TRUE(t.try_claim(c, 2));
  CoordinatorDriver drv(t, 1);
  const auto won = drv.acquire(WakeDecision{.wake_on_free = 4});
  ASSERT_EQ(won.claimed.size(), 1u);
  EXPECT_EQ(won.claimed[0], 3u);
}

TEST(CoordinatorDriver, ReclaimTakesOnlyHomeCores) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  // p2 borrows two of p1's home cores and sits on two of its own.
  ASSERT_TRUE(t.try_claim(0, 2));
  ASSERT_TRUE(t.try_claim(1, 2));
  ASSERT_TRUE(t.try_claim(8, 2));
  ASSERT_TRUE(t.try_claim(9, 2));
  CoordinatorDriver drv(t, 1);
  const auto won = drv.acquire(WakeDecision{.wake_on_reclaim = 8});
  EXPECT_EQ(won.reclaimed.size(), 2u);  // only the two borrowed home cores
  EXPECT_TRUE(won.claimed.empty());
  EXPECT_EQ(t.user_of(0), 1u);
  EXPECT_EQ(t.user_of(1), 1u);
  EXPECT_EQ(t.user_of(8), 2u);  // p2's own cores untouched
  EXPECT_EQ(t.user_of(9), 2u);
}

TEST(CoordinatorDriver, SnapshotReflectsTable) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  ASSERT_TRUE(t.try_claim(0, 2));   // p2 borrows p1's core
  ASSERT_TRUE(t.try_claim(8, 2));   // p2 uses own core
  CoordinatorDriver drv(t, 1);
  const DemandSnapshot s = drv.snapshot_cores();
  EXPECT_EQ(s.free_cores, 14u);
  EXPECT_EQ(s.reclaimable_cores, 1u);
}

TEST(CoordinatorDriver, SelectionIsDeterministicAcrossSeeds) {
  // The grant order is a property of the table + topology alone: two
  // drivers over identical tables must claim identical cores.
  CoreTableLocal a(16, 2), b(16, 2);
  CoordinatorDriver da(a.table(), 1), db(b.table(), 1);
  const auto wa = da.acquire(WakeDecision{.wake_on_free = 6});
  const auto wb = db.acquire(WakeDecision{.wake_on_free = 6});
  EXPECT_EQ(wa.claimed, wb.claimed);
}

TEST(CoordinatorDriver, EquallyEligibleCoresAreGrantedByAscendingId) {
  // Regression for the iteration-order dependence: when candidates are
  // equally eligible the tie-break is explicit — stable by core id — not
  // whatever order the table scan produced. A reversed-iteration mutant
  // of order_candidates (or of free_cores()) grants {15,14,13,12} and
  // fails here.
  CoreTableLocal local(16, 2);
  CoordinatorDriver drv(local.table(), /*pid=*/1);
  const auto won = drv.acquire(WakeDecision{.wake_on_free = 4});
  EXPECT_EQ(won.claimed, (std::vector<CoreId>{0, 1, 2, 3}));
}

TEST(CoordinatorDriver, ReclaimAlsoGrantsByAscendingId) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  // p2 borrows three of p1's home cores (p1 homes 0-3).
  for (CoreId c = 0; c < 3; ++c) ASSERT_TRUE(t.try_claim(c, 2));
  CoordinatorDriver drv(t, 1);
  const auto won = drv.acquire(WakeDecision{.wake_on_reclaim = 2});
  EXPECT_EQ(won.reclaimed, (std::vector<CoreId>{0, 1}));
}

TEST(CoordinatorDriver, TopologyPrefersCoresNearTheHomeSocket) {
  // Tentpole behaviour: with a machine model attached, the core-exchange
  // grants cores nearest the requester's home socket first. Program 2
  // homes the upper socket (cores 8-15) of a 2-socket machine: claiming 6
  // of the 16 free cores must take 8..13 — not the id-ascending 0..5 that
  // the flat tie-break alone would pick.
  const Topology topo = Topology::synthetic(16, 2);
  CoreTableLocal local(16, 2);
  CoordinatorDriver drv(local.table(), /*pid=*/2, &topo, /*home_core=*/8);
  const auto won = drv.acquire(WakeDecision{.wake_on_free = 6});
  EXPECT_EQ(won.claimed, (std::vector<CoreId>{8, 9, 10, 11, 12, 13}));
}

TEST(CoordinatorDriver, SpillsToRemoteSocketOnlyAfterNearIsExhausted) {
  const Topology topo = Topology::synthetic(8, 2);
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  // Another program occupies most of the home socket (cores 4-7).
  ASSERT_TRUE(t.try_claim(4, 1));
  ASSERT_TRUE(t.try_claim(5, 1));
  ASSERT_TRUE(t.try_claim(6, 1));
  CoordinatorDriver drv(t, /*pid=*/2, &topo, /*home_core=*/4);
  const auto won = drv.acquire(WakeDecision{.wake_on_free = 3});
  // The one near core left (7), then the remote socket in id order.
  EXPECT_EQ(won.claimed, (std::vector<CoreId>{7, 0, 1}));
}

TEST(CoordinatorDriver, FlatMachineGrantsTheHomeAnchorFirst) {
  // The real runtime's machine is flat, but the grant order still reads
  // the topology: distance(anchor, anchor) is VERYNEAR, so the home
  // anchor outranks every other (NEAR) core. Program 2 anchored at core 2
  // of a free 4-core table claims 2 first, then 0 and 1 by id; without a
  // topology the order is id alone.
  const Topology topo = Topology::synthetic(4, 1);
  CoreTableLocal local(4, 2);
  CoordinatorDriver drv(local.table(), /*pid=*/2, &topo, /*home_core=*/2);
  const auto won = drv.acquire(WakeDecision{.wake_on_free = 3});
  EXPECT_EQ(won.claimed, (std::vector<CoreId>{2, 0, 1}));

  CoreTableLocal bare(4, 2);
  CoordinatorDriver id_only(bare.table(), /*pid=*/2);
  EXPECT_EQ(id_only.acquire(WakeDecision{.wake_on_free = 3}).claimed,
            (std::vector<CoreId>{0, 1, 2}));
}

TEST(CoordinatorDriver, TwoDriversNeverDoubleClaim) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  CoordinatorDriver d1(t, 1), d2(t, 2);
  const auto w1 = d1.acquire(WakeDecision{.wake_on_free = 10});
  const auto w2 = d2.acquire(WakeDecision{.wake_on_free = 10});
  EXPECT_EQ(w1.total() + w2.total(), 16u);
  std::set<CoreId> all;
  for (CoreId c : w1.claimed) all.insert(c);
  for (CoreId c : w2.claimed) all.insert(c);
  EXPECT_EQ(all.size(), 16u);  // disjoint
}

// ---- run_coordinator_step with a fake executor ----

// Program 2 of two on an 8-core, 2-socket machine (home cores 4-7). It
// runs on core 4; program 1 runs on its own cores 0-2 and has borrowed
// cores 5 and 6. Free: 3 (remote socket) and 7 (home socket).
class FakeExecutor {
 public:
  FakeExecutor(std::uint64_t queued, const std::vector<CoreId>& asleep)
      : queued_(queued), asleep_(kCores, false) {
    for (CoreId c : asleep) asleep_[c] = true;
  }
  DemandSnapshot demand() const {
    const auto sleeping = static_cast<unsigned>(
        std::count(asleep_.begin(), asleep_.end(), true));
    return snap(queued_, kCores - sleeping, 0, 0, sleeping);
  }
  bool wake(CoreId core, WakeReason reason) {
    if (!asleep_[core]) return false;
    asleep_[core] = false;
    woken.emplace_back(core, reason);
    return true;
  }

  static constexpr unsigned kCores = 8;
  std::vector<std::pair<CoreId, WakeReason>> woken;

 private:
  std::uint64_t queued_;
  std::vector<bool> asleep_;
};

struct StepCase {
  const char* name;
  bool with_driver;  ///< false: DWS-NC
  std::uint64_t queued;
  std::vector<CoreId> asleep;
  std::vector<std::pair<CoreId, WakeReason>> expect_woken;
};

class CoordinatorStepTest : public ::testing::TestWithParam<StepCase> {};

TEST_P(CoordinatorStepTest, WakesExactlyTheDecidedWorkers) {
  const StepCase& tc = GetParam();
  const Topology topo = Topology::synthetic(FakeExecutor::kCores, 2);
  CoreTableLocal local(FakeExecutor::kCores, 2);
  CoreTable& t = local.table();
  const ProgramId other = t.register_program();
  const ProgramId me = t.register_program();
  for (CoreId c : {0u, 1u, 2u, 5u, 6u}) ASSERT_TRUE(t.try_claim(c, other));
  ASSERT_TRUE(t.try_claim(4, me));
  std::vector<ProgramId> before;
  for (CoreId c = 0; c < FakeExecutor::kCores; ++c) {
    before.push_back(t.user_of(c));
  }

  CoordinatorDriver driver(t, me, &topo, /*home_core=*/4);
  FakeExecutor exec(tc.queued, tc.asleep);
  const CoordinatorStep step = run_coordinator_step(
      tc.with_driver ? &driver : nullptr, exec.demand(), FakeExecutor::kCores,
      [&exec](CoreId c, WakeReason why) { return exec.wake(c, why); });

  EXPECT_EQ(exec.woken, tc.expect_woken);
  EXPECT_EQ(step.woken, exec.woken.size());
  EXPECT_LE(step.woken, step.decision.total());
  if (tc.with_driver) {
    // The snapshot reports the table.
    EXPECT_EQ(step.snapshot.free_cores, 2u);
    EXPECT_EQ(step.snapshot.reclaimable_cores, 2u);
    // Every core won had a sleeper, and the record says which it was.
    EXPECT_EQ(step.won.total(), step.woken);
    std::size_t i = 0;
    for (CoreId c : step.won.claimed) {
      EXPECT_EQ(exec.woken[i++], std::make_pair(c, WakeReason::kClaimed));
    }
    for (CoreId c : step.won.reclaimed) {
      EXPECT_EQ(exec.woken[i++], std::make_pair(c, WakeReason::kReclaimed));
    }
  } else {
    EXPECT_EQ(step.won.total(), 0u);
    EXPECT_EQ(step.woken,
              std::min(step.decision.total(), step.snapshot.sleeping_workers));
  }
  // The table changed exactly on the cores won.
  for (CoreId c = 0; c < FakeExecutor::kCores; ++c) {
    const bool won = std::count(step.won.claimed.begin(),
                                step.won.claimed.end(), c) +
                         std::count(step.won.reclaimed.begin(),
                                    step.won.reclaimed.end(), c) >
                     0;
    EXPECT_EQ(t.user_of(c), won ? me : before[c]) << "core " << c;
  }
}

constexpr auto kClaimed = WakeReason::kClaimed;
constexpr auto kReclaimed = WakeReason::kReclaimed;
constexpr auto kInPlace = WakeReason::kInPlace;

INSTANTIATE_TEST_SUITE_P(
    Paths, CoordinatorStepTest,
    ::testing::Values(
        // N_w = 40 / 1, capped at 7 sleepers; case 3 takes both free cores
        // nearest-first (7 on the home socket, then 3), then both
        // reclaimable ones in id order.
        StepCase{"DwsClaimsThenReclaims", true, 40,
                 {0, 1, 2, 3, 5, 6, 7},
                 {{7, kClaimed}, {3, kClaimed}, {5, kReclaimed},
                  {6, kReclaimed}}},
        StepCase{"DwsZeroDecision", true, 0, {0, 1, 2, 3, 5, 6, 7}, {}},
        // DWS-NC, N_w = 12 / 4 = 3 of 4 sleepers, in core order.
        StepCase{"NcWakesNeedInCoreOrder", false, 12, {1, 3, 6, 7},
                 {{1, kInPlace}, {3, kInPlace}, {6, kInPlace}}},
        // DWS-NC, N_w = 100 but only 4 sleepers.
        StepCase{"NcWakesAtMostTheSleepers", false, 400, {1, 3, 6, 7},
                 {{1, kInPlace}, {3, kInPlace}, {6, kInPlace},
                  {7, kInPlace}}},
        StepCase{"NcZeroDecision", false, 0, {1, 3, 6, 7}, {}}),
    [](const auto& info) { return std::string(info.param.name); });

// ---------------------------------------------------------------------------
// StaleSweeper: liveness-epoch stall detection + stale-core recovery.
// All tests inject an AliveProbe so no real kill(2) is involved.

class StaleSweeperTest : public ::testing::Test {
 protected:
  StaleSweeperTest() : local_(8, 2), table_(local_.table()) {
    me_ = table_.register_program();      // id 1, homes cores 0-3
    victim_ = table_.register_program();  // id 2, homes cores 4-7
    table_.bind_liveness(me_, 100);
    table_.bind_liveness(victim_, 200);
    table_.claim_home_cores(me_);
    table_.claim_home_cores(victim_);
  }

  CoreTableLocal local_;
  CoreTable& table_;
  ProgramId me_ = 0;
  ProgramId victim_ = 0;
};

TEST_F(StaleSweeperTest, HeartbeatingProgramIsNeverSwept) {
  StaleSweeper sweeper(table_, me_, 2,
                       [](std::uint32_t) { return false; });  // all "dead"
  for (int period = 0; period < 10; ++period) {
    table_.heartbeat(victim_);  // victim keeps beating
    EXPECT_TRUE(sweeper.sweep().empty()) << "period " << period;
  }
  EXPECT_EQ(table_.count_active(victim_), 4u);
}

TEST_F(StaleSweeperTest, DeadProgramIsSweptAfterExactlyStalePeriods) {
  constexpr unsigned kStale = 3;
  StaleSweeper sweeper(table_, me_, kStale,
                       [](std::uint32_t) { return false; });
  // The victim stops heartbeating (crashed). The first sweep records the
  // baseline epoch; the stall clock then needs kStale stalled periods, so
  // the sweep fires on pass kStale + 1 — i.e. after observing the epoch
  // unchanged across kStale full periods.
  for (unsigned period = 0; period < kStale; ++period) {
    EXPECT_TRUE(sweeper.sweep().empty()) << "period " << period;
  }
  const StaleSweepResult r = sweeper.sweep();
  ASSERT_EQ(r.declared_dead.size(), 1u);
  EXPECT_EQ(r.declared_dead[0], victim_);
  EXPECT_EQ(r.freed.size(), 4u);
  EXPECT_EQ(table_.count_active(victim_), 0u);
  EXPECT_EQ(table_.liveness_os_pid(victim_), 0u);  // record retired
  // My own cores were never touched.
  EXPECT_EQ(table_.count_active(me_), 4u);
}

TEST_F(StaleSweeperTest, RebindWithCollidingEpochRestartsTheStallClock) {
  // Epochs restart at 1 per bind, so a slot rebound to a new process
  // right after its predecessor went silent presents exactly the epoch
  // the sweeper last recorded for the corpse. Keyed on the epoch alone
  // the newcomer inherits the predecessor's stalled count and is swept
  // on the very next pass; keyed on (os_pid, epoch) it gets the full
  // stale_periods budget a fresh binding deserves.
  constexpr unsigned kStale = 3;
  StaleSweeper sweeper(table_, me_, kStale,
                       [](std::uint32_t) { return false; });
  // Stall the victim to the brink: one more silent period sweeps it.
  for (unsigned period = 0; period < kStale; ++period) {
    ASSERT_TRUE(sweeper.sweep().empty()) << "period " << period;
  }
  // The old process exits and a new one binds the same slot. Its first
  // epoch collides with the corpse's last observed one.
  table_.bind_liveness(victim_, 300);
  ASSERT_EQ(table_.liveness_epoch(victim_), 1u);  // the collision is real
  // The next sweep must NOT fire: a different os_pid is a different
  // process, whatever the epoch says.
  EXPECT_TRUE(sweeper.sweep().empty());
  EXPECT_EQ(table_.count_active(victim_), 4u);
  // And the newcomer, if it too goes silent, still gets the full budget.
  for (unsigned period = 0; period < kStale - 1; ++period) {
    EXPECT_TRUE(sweeper.sweep().empty()) << "rebound period " << period;
  }
  const StaleSweepResult r = sweeper.sweep();
  ASSERT_EQ(r.declared_dead.size(), 1u);
  EXPECT_EQ(r.declared_dead[0], victim_);
  EXPECT_EQ(table_.liveness_os_pid(victim_), 0u);
}

TEST_F(StaleSweeperTest, KillProbeVetoesStalledButAliveProgram) {
  // A program can stall its epoch while alive (e.g. an EP co-runner with
  // no coordinator thread, or one wedged in a long syscall). The kill(2)
  // probe is authoritative: alive means never swept.
  StaleSweeper sweeper(table_, me_, 2, [](std::uint32_t) { return true; });
  for (int period = 0; period < 10; ++period) {
    EXPECT_TRUE(sweeper.sweep().empty());
  }
  EXPECT_EQ(table_.count_active(victim_), 4u);
}

TEST_F(StaleSweeperTest, AliveVerdictResetsTheStallClock) {
  // Probe says alive for a while, then the process really dies: the stall
  // clock must restart from the alive verdict, not fire immediately.
  int alive_calls = 2;
  StaleSweeper sweeper(table_, me_, 2, [&alive_calls](std::uint32_t) {
    return alive_calls-- > 0;
  });
  int sweeps_until_dead = 0;
  while (sweeper.sweep().empty()) {
    ASSERT_LT(++sweeps_until_dead, 20) << "sweeper never fired";
  }
  // Two alive verdicts each bought the victim stale_periods more sweeps.
  EXPECT_GE(sweeps_until_dead, 4);
}

TEST_F(StaleSweeperTest, UnboundProgramIsNeverSwept) {
  // os_pid == 0 means no liveness evidence was ever published (e.g. a
  // co-runner predating the protocol). Without evidence there is no
  // verdict: those cores are never force-released.
  CoreTableLocal fresh(8, 2);
  CoreTable& t = fresh.table();
  const ProgramId a = t.register_program();
  const ProgramId b = t.register_program();
  t.bind_liveness(a, 100);
  t.claim_home_cores(a);
  t.claim_home_cores(b);  // b never binds liveness
  StaleSweeper sweeper(t, a, 1, [](std::uint32_t) { return false; });
  for (int period = 0; period < 5; ++period) {
    EXPECT_TRUE(sweeper.sweep().empty());
  }
  EXPECT_EQ(t.count_active(b), 4u);
}

TEST_F(StaleSweeperTest, SweeperSkipsItself) {
  // I never heartbeat in this test, and the probe says dead — but a
  // sweeper must not declare its own program stale.
  StaleSweeper sweeper(table_, me_, 1, [](std::uint32_t) { return false; });
  table_.heartbeat(victim_);
  table_.heartbeat(victim_);
  const StaleSweepResult first = sweeper.sweep();
  EXPECT_TRUE(first.empty());
  table_.heartbeat(victim_);
  EXPECT_TRUE(sweeper.sweep().empty());
  EXPECT_EQ(table_.count_active(me_), 4u);
}

TEST_F(StaleSweeperTest, ZeroStalePeriodsDisablesTheSweep) {
  StaleSweeper sweeper(table_, me_, 0, [](std::uint32_t) { return false; });
  for (int period = 0; period < 5; ++period) {
    EXPECT_TRUE(sweeper.sweep().empty());
  }
  EXPECT_EQ(table_.count_active(victim_), 4u);
}

TEST_F(StaleSweeperTest, TwoSweepersElectExactlyOneRecoverer) {
  // Both survivors notice the same dead program; the retire_liveness CAS
  // guarantees exactly one wins and frees the cores (no double-count).
  CoreTableLocal fresh(12, 3);
  CoreTable& t = fresh.table();
  const ProgramId a = t.register_program();
  const ProgramId b = t.register_program();
  const ProgramId dead = t.register_program();
  t.bind_liveness(a, 100);
  t.bind_liveness(b, 101);
  t.bind_liveness(dead, 102);
  t.claim_home_cores(dead);  // 4 cores
  auto dead_probe = [](std::uint32_t) { return false; };
  StaleSweeper sa(t, a, 1, dead_probe);
  StaleSweeper sb(t, b, 1, dead_probe);
  // Keep a and b beating so they never sweep each other.
  auto beat = [&] {
    t.heartbeat(a);
    t.heartbeat(b);
  };
  beat();
  EXPECT_TRUE(sa.sweep().empty());  // baseline pass
  EXPECT_TRUE(sb.sweep().empty());
  beat();
  StaleSweepResult ra = sa.sweep();
  StaleSweepResult rb = sb.sweep();
  int winners = 0;
  std::size_t freed = 0;
  for (const StaleSweepResult* r : {&ra, &rb}) {
    if (!r->declared_dead.empty()) {
      ++winners;
      freed += r->freed.size();
    }
  }
  EXPECT_EQ(winners, 1);
  EXPECT_EQ(freed, 4u);
  EXPECT_EQ(t.count_active(dead), 0u);
  // Later sweeps stay quiet: the record is retired.
  beat();
  EXPECT_TRUE(sa.sweep().empty());
  EXPECT_TRUE(sb.sweep().empty());
}

}  // namespace
}  // namespace dws

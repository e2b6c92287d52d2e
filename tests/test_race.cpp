// Race-detector tests (ctest labels: race, race-fasttrack).
//
// Two detection modes share the annotation stream and the suite:
//   race::Mode::kSpBags    serial depth-first replay; certifies the DAG;
//   race::Mode::kFastTrack vector clocks over the live parallel
//                          schedule (real workers, real steals).
// App-level suites (clean certification, mutants, DAG certification,
// seeded sweeps) run under BOTH modes; the SP-relation and ALL-SETS
// lockset unit tests are SP-bags-only because their expectations encode
// the serial-replay lock order, which FastTrack replaces with the
// observed schedule's lock edges (docs/CHECKING.md). DWS_RACE_MODE
// (spbags | fasttrack | both) filters at runtime without changing test
// names — filtered-out modes report as skipped.
//
// Layers:
//  1. detector unit tests against hand-built spawn trees — the SP
//     relation (siblings parallel, wait serializes), read/write rules,
//     strided-disjointness, provenance chains, and the ALL-SETS lockset
//     semantics (common lock serializes, disjoint locksets race, locks
//     do not cross spawns, pruning keeps locker lists small); plus the
//     FastTrack equivalents that are schedule-independent (spawn/join
//     edges, epoch adaptivity, read-vector promotion);
//  2. clean certification — each Table-2 app (including PNN's locked
//     combine) runs with zero reports AND verifies, in both modes;
//  3. seeded racy mutants — one deliberately broken kernel per app
//     pattern, each of which must be flagged *in both modes* with a
//     provenance chain naming the mutant's race::region (and, for the
//     lock mutants, the lock provenance that would have serialized the
//     pair);
//  4. simulator-DAG certification — every DagProfile generator's TaskDag
//     is executed as the fork-join program it encodes (apps/dag_replay)
//     under the detector, so the simulated DAGs ship with the same
//     certificate as the real kernels;
//  5. seeded-input sweep — input-dependent kernels (Mergesort cutoffs,
//     FFT sizes) are certified across N seeded inputs; N comes from
//     --sweep=N or DWS_RACE_SWEEP (default 3, clamped to [1, 16]);
//  6. mode agreement — on one worker both modes see the same logical
//     DAG, so their verdicts must match across the app corpus and a
//     seeded racy kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/app.hpp"
#include "apps/dag_replay.hpp"
#include "apps/fft.hpp"
#include "apps/mergesort.hpp"
#include "apps/profiles.hpp"
#include "race/fasttrack.hpp"
#include "race/spbags.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace dws {
namespace {

/// Seeded-input sweep width, set by main() from --sweep=N or the
/// DWS_RACE_SWEEP environment variable.
int g_sweep = 3;

int sweep_n() { return g_sweep; }

Config make_config(unsigned cores) {
  Config cfg;
  cfg.mode = SchedMode::kDws;
  cfg.num_cores = cores;
  cfg.pin_threads = false;
  return cfg;
}

/// Both detection modes, for mode-parametrized suites.
constexpr race::Mode kBothModes[] = {race::Mode::kSpBags,
                                     race::Mode::kFastTrack};

/// True if DWS_RACE_MODE (unset = both) enables `m`. Filtering happens
/// at runtime via GTEST_SKIP so test names stay stable across modes.
bool mode_enabled(race::Mode m) {
  static const std::vector<race::Mode> enabled = race::modes_from_env();
  return std::find(enabled.begin(), enabled.end(), m) != enabled.end();
}

/// CamelCase mode tag for parametrized test names.
std::string mode_tag(race::Mode m) {
  return m == race::Mode::kFastTrack ? "FastTrack" : "SpBags";
}

/// SP-bags replays inline (worker count is irrelevant); FastTrack checks
/// the live schedule, so it gets enough workers for real stealing.
Config config_for(race::Mode m) {
  return make_config(m == race::Mode::kFastTrack ? 4 : 2);
}

/// True if any report's provenance (either side) mentions `needle`.
bool any_chain_mentions(const std::vector<race::RaceReport>& reports,
                        const std::string& needle) {
  for (const auto& r : reports) {
    for (const auto& hop : r.prior_chain) {
      if (hop.find(needle) != std::string::npos) return true;
    }
    for (const auto& hop : r.current_chain) {
      if (hop.find(needle) != std::string::npos) return true;
    }
  }
  return false;
}

std::string dump(const std::vector<race::RaceReport>& reports) {
  std::string s;
  for (const auto& r : reports) s += r.to_string() + "\n";
  return s;
}

// ---------------------------------------------------------------------
// 1. Detector unit tests.
// ---------------------------------------------------------------------

/// SP-bags-only unit tests (serial-replay semantics); skipped when
/// DWS_RACE_MODE filters the mode out.
class SpBagsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mode_enabled(race::Mode::kSpBags)) {
      GTEST_SKIP() << "spbags disabled by DWS_RACE_MODE";
    }
  }
};

/// The ALL-SETS lockset tests encode serial-replay lock ordering, so
/// they are SP-bags-only too.
class LocksetTest : public SpBagsTest {};

TEST_F(SpBagsTest, SiblingWritesSameAddressRace) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::write(&x);
      x = 1.0;
    });
    sched.spawn(g, [&] {
      race::write(&x);
      x = 2.0;
    });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_EQ(reports[0].prior, race::Access::kWrite);
    EXPECT_EQ(reports[0].current, race::Access::kWrite);
    EXPECT_EQ(reports[0].addr, reinterpret_cast<std::uintptr_t>(&x) &
                                   ~std::uintptr_t{7});
  }
}

TEST_F(SpBagsTest, WaitSerializesAccesses) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  {
    race::Replay replay(sched);
    rt::TaskGroup g1;
    sched.spawn(g1, [&] {
      race::write(&x);
      x = 1.0;
    });
    sched.wait(g1);
    // After the wait the first task is a serial predecessor: no race.
    rt::TaskGroup g2;
    sched.spawn(g2, [&] {
      race::write(&x);
      x = 2.0;
    });
    sched.wait(g2);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
  }
}

TEST_F(SpBagsTest, ParallelReadsAreNotARace) {
  rt::Scheduler sched(make_config(2));
  const double x = 42.0;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    for (int i = 0; i < 4; ++i) {
      sched.spawn(g, [&] { race::read(&x); });
    }
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
  }
}

TEST_F(SpBagsTest, ParallelReadAndWriteRace) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] { race::read(&x); });
    sched.spawn(g, [&] {
      race::write(&x);
      x = 1.0;
    });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_EQ(reports[0].prior, race::Access::kRead);
    EXPECT_EQ(reports[0].current, race::Access::kWrite);
  }
}

TEST_F(SpBagsTest, ContinuationRacesWithSpawnedChild) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::write(&x);
      x = 1.0;
    });
    // The parent's continuation before wait() is parallel with the child.
    race::read(&x);
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_EQ(reports[0].prior, race::Access::kWrite);
    EXPECT_EQ(reports[0].current, race::Access::kRead);
  }
}

TEST_F(SpBagsTest, StridedAccessesWithDisjointParityDoNotRace) {
  rt::Scheduler sched(make_config(2));
  std::vector<double> v(64, 0.0);
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    // Even granules vs odd granules: interleaved but disjoint.
    sched.spawn(g, [&] { race::write(v.data(), 32, 2); });
    sched.spawn(g, [&] { race::write(v.data() + 1, 32, 2); });
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
  }
}

TEST_F(SpBagsTest, ReplayRunsInlineOnSubmittingThread) {
  rt::Scheduler sched(make_config(2));
  const auto main_id = std::this_thread::get_id();
  int order = 0;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      EXPECT_EQ(std::this_thread::get_id(), main_id);
      EXPECT_EQ(order, 0);  // depth-first: runs at the spawn site
      order = 1;
    });
    EXPECT_EQ(order, 1);
    sched.spawn(g, [&] { order = 2; });
    EXPECT_EQ(order, 2);
    sched.wait(g);
    EXPECT_EQ(replay.detector().tasks_executed(), 2u);
  }
}

TEST_F(SpBagsTest, ProvenanceChainsAreRootFirstAndCarryRegions) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  {
    race::Replay replay(sched);
    race::region scope("outer-kernel");
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::write(&x);
      // Nested spawn: the inner task's chain goes root > outer > inner.
      rt::TaskGroup inner;
      sched.spawn(inner, [&] { race::write(&x); });
      sched.wait(inner);
    });
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_FALSE(reports.empty());
    for (const auto& r : reports) {
      ASSERT_FALSE(r.prior_chain.empty());
      ASSERT_FALSE(r.current_chain.empty());
      EXPECT_EQ(r.prior_chain.front(), "root");
      EXPECT_EQ(r.current_chain.front(), "root");
    }
    EXPECT_TRUE(any_chain_mentions(reports, "outer-kernel")) << dump(reports);
  }
}

TEST_F(SpBagsTest, DuplicatePairsAreReportedOnce) {
  rt::Scheduler sched(make_config(2));
  std::vector<double> v(16, 0.0);
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    // Two tasks conflicting on 16 granules: one report, 16 found.
    sched.spawn(g, [&] { race::write(v.data(), v.size()); });
    sched.spawn(g, [&] { race::write(v.data(), v.size()); });
    sched.wait(g);
    const auto& reports = replay.finish();
    EXPECT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_EQ(replay.detector().races_found(), v.size());
  }
}

TEST_F(SpBagsTest, ParallelForSubrangesDoNotRaceOnDisjointBlocks) {
  rt::Scheduler sched(make_config(2));
  std::vector<double> v(256, 0.0);
  {
    race::Replay replay(sched);
    rt::parallel_for(sched, 0, 256, 16, [&](std::int64_t b, std::int64_t e) {
      race::write(v.data() + b, static_cast<std::size_t>(e - b));
      for (std::int64_t i = b; i < e; ++i) v[static_cast<std::size_t>(i)] = 1;
    });
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_GT(replay.detector().tasks_executed(), 1u);
  }
}

// ---------------------------------------------------------------------
// 1b. ALL-SETS lockset semantics.
// ---------------------------------------------------------------------

TEST_F(LocksetTest, CommonLockSerializesParallelWrites) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  std::mutex m;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    for (int i = 0; i < 4; ++i) {
      sched.spawn(g, [&] {
        race::scoped_lock<std::mutex> lock(m, "x-lock");
        race::write(&x);
        x += 1.0;
      });
    }
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_EQ(replay.detector().locks_seen(), 1u);
    EXPECT_GT(replay.detector().granules_checked(), 0u);
  }
}

TEST_F(LocksetTest, DisjointLocksStillRace) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  std::mutex ma, mb;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::scoped_lock<std::mutex> lock(ma, "lock-a");
      race::write(&x);
    });
    sched.spawn(g, [&] {
      race::scoped_lock<std::mutex> lock(mb, "lock-b");
      race::write(&x);
    });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    // Lock provenance: each side's (disjoint) lockset, by name.
    ASSERT_EQ(reports[0].prior_locks.size(), 1u);
    ASSERT_EQ(reports[0].current_locks.size(), 1u);
    EXPECT_EQ(reports[0].prior_locks[0], "lock-a");
    EXPECT_EQ(reports[0].current_locks[0], "lock-b");
    const std::string s = reports[0].to_string();
    EXPECT_NE(s.find("lock-a"), std::string::npos) << s;
    EXPECT_NE(s.find("lock-b"), std::string::npos) << s;
    EXPECT_NE(s.find("would have serialized"), std::string::npos) << s;
  }
}

TEST_F(LocksetTest, LockedVersusUnlockedAccessRaces) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  std::mutex m;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::scoped_lock<std::mutex> lock(m, "half-lock");
      race::write(&x);
    });
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    ASSERT_EQ(reports[0].prior_locks.size(), 1u);
    EXPECT_EQ(reports[0].prior_locks[0], "half-lock");
    EXPECT_TRUE(reports[0].current_locks.empty());
  }
}

TEST_F(LocksetTest, NoLockReportSaysSo) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] { race::write(&x); });
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_NE(reports[0].to_string().find("no locks held by either access"),
              std::string::npos)
        << reports[0].to_string();
  }
}

TEST_F(LocksetTest, LocksDoNotCrossSpawns) {
  // A child spawned while the parent holds a lock does NOT inherit it:
  // in a parallel schedule the child runs on a worker that does not own
  // the parent's mutex.
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  std::mutex m;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    {
      race::scoped_lock<std::mutex> lock(m, "parent-lock");
      sched.spawn(g, [&] { race::write(&x); });  // child: no lockset
      race::write(&x);  // parent continuation: holds parent-lock
    }
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_TRUE(reports[0].prior_locks.empty()) << dump(reports);
    ASSERT_EQ(reports[0].current_locks.size(), 1u);
    EXPECT_EQ(reports[0].current_locks[0], "parent-lock");
  }
}

TEST_F(LocksetTest, RecursiveHoldIsAMultiset) {
  // acquire-acquire-release leaves the lock held (one release per
  // acquire), so the access still carries it.
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  std::mutex m;  // annotated manually: std::mutex is not recursive
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::lock_acquire(&m, "recursive-lock");
      race::lock_acquire(&m);
      race::lock_release(&m);
      race::write(&x);  // still protected
      race::lock_release(&m);
    });
    sched.spawn(g, [&] {
      race::scoped_lock<std::mutex> lock(m, "recursive-lock");
      race::write(&x);
    });
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
  }
}

TEST_F(LocksetTest, HandOverHandLockingTracksTheHeldSet) {
  // acquire A, acquire B, release A: the access under {B} is safe
  // against a parallel access under {B}, races against one under {A}.
  rt::Scheduler sched(make_config(2));
  double x = 0.0, y = 0.0;
  std::mutex a, b;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::lock_acquire(&a, "hoh-a");
      race::lock_acquire(&b, "hoh-b");
      race::lock_release(&a);
      race::write(&x);  // under {B} only
      race::write(&y);
      race::lock_release(&b);
    });
    sched.spawn(g, [&] {
      race::scoped_lock<std::mutex> lock(b, "hoh-b");
      race::write(&x);  // common lock B: no race
    });
    sched.spawn(g, [&] {
      race::scoped_lock<std::mutex> lock(a, "hoh-a");
      race::write(&y);  // holds A, prior was under {B}: race
    });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_EQ(reports[0].addr,
              reinterpret_cast<std::uintptr_t>(&y) & ~std::uintptr_t{7});
  }
}

TEST_F(LocksetTest, ScopedLockEndsProtectionAtScopeExit) {
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  std::mutex m;
  {
    race::Replay replay(sched);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      { race::scoped_lock<std::mutex> lock(m, "scope-lock"); }
      race::write(&x);  // after the scope: unprotected
    });
    sched.spawn(g, [&] {
      race::scoped_lock<std::mutex> lock(m, "scope-lock");
      race::write(&x);
    });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
  }
}

TEST_F(LocksetTest, SerialPredecessorsArePrunedFromLockerLists) {
  // Spawn+wait in sequence: each new write subsumes the previous serial
  // one under the ALL-SETS pruning rule, so the locker list stays at one
  // entry and prune events are observable.
  rt::Scheduler sched(make_config(2));
  double x = 0.0;
  {
    race::Replay replay(sched);
    for (int i = 0; i < 4; ++i) {
      rt::TaskGroup g;
      sched.spawn(g, [&] { race::write(&x); });
      sched.wait(g);
    }
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_GE(replay.detector().lockers_pruned(), 3u);
  }
}

TEST_F(LocksetTest, ParallelReduceCombineCertifiesUnderItsLock) {
  // parallel_reduce's combine step runs under an annotated internal
  // lock; a reduction whose combine annotates the shared accumulator
  // must certify clean — this is exactly the PNN pattern.
  rt::Scheduler sched(make_config(2));
  struct Acc {
    std::vector<double> v;
  };
  {
    race::Replay replay(sched);
    Acc init;
    init.v.assign(8, 0.0);
    const std::size_t n = init.v.size();
    Acc total = rt::parallel_reduce<Acc>(
        sched, 0, 64, 4, std::move(init),
        [n](std::int64_t b, std::int64_t e) {
          Acc p;
          p.v.assign(n, static_cast<double>(e - b));
          return p;
        },
        [n](Acc a, Acc b) {
          race::write(a.v.data(), n);
          race::read(b.v.data(), n);
          for (std::size_t k = 0; k < n; ++k) a.v[k] += b.v[k];
          return a;
        });
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_EQ(replay.detector().locks_seen(), 1u);
    EXPECT_DOUBLE_EQ(total.v[0], 64.0);
  }
}

// ---------------------------------------------------------------------
// 1c. FastTrack unit tests — only properties that are
//     schedule-independent (spawn/join HB edges, epoch adaptivity), so
//     they hold on any worker interleaving.
// ---------------------------------------------------------------------

class FastTrackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mode_enabled(race::Mode::kFastTrack)) {
      GTEST_SKIP() << "fasttrack disabled by DWS_RACE_MODE";
    }
  }
};

TEST_F(FastTrackTest, SiblingWritesSameAddressRace) {
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  double x = 0.0;
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    // No real stores — the annotations alone model the conflict, so the
    // test is clean under TSan while the detector must still flag it.
    sched.spawn(g, [&] { race::write(&x); });
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
    EXPECT_EQ(reports[0].prior, race::Access::kWrite);
    EXPECT_EQ(reports[0].current, race::Access::kWrite);
    EXPECT_EQ(reports[0].addr,
              reinterpret_cast<std::uintptr_t>(&x) & ~std::uintptr_t{7});
  }
}

TEST_F(FastTrackTest, WaitSerializesAccesses) {
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  double x = 0.0;
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g1;
    sched.spawn(g1, [&] { race::write(&x); });
    sched.wait(g1);
    // The wait joined the group's clock: the next task is ordered even
    // if it lands on a different worker.
    rt::TaskGroup g2;
    sched.spawn(g2, [&] { race::write(&x); });
    sched.wait(g2);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
  }
}

TEST_F(FastTrackTest, ContinuationRacesWithSpawnedChild) {
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  double x = 0.0;
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    sched.spawn(g, [&] { race::write(&x); });
    // The submitting thread's continuation is parallel with the child;
    // whichever access reaches the shadow word second sees the other's
    // epoch outside its clock, so detection is order-independent.
    race::read(&x);
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
  }
}

TEST_F(FastTrackTest, SameWorkerTasksStayLogicallyParallel) {
  // One worker executes every task in some serial order; replace-at-begin
  // (rather than join) must drop that incidental ordering so the race is
  // still visible — the property the 1-worker agreement suite relies on.
  rt::Scheduler sched(make_config(1));
  double x = 0.0;
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    sched.spawn(g, [&] { race::write(&x); });
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_EQ(reports.size(), 1u) << dump(reports);
  }
}

TEST_F(FastTrackTest, RecycledTaskSlotsCarryNoStaleState) {
  // Regression for pooled task storage: a slot recycled through the
  // per-worker TaskPool must not hand its next occupant the previous
  // task's happens-before token. An inherited token would corrupt the
  // clock frames — ordered work would appear racy (or racy work ordered).
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  // Warm the pools undetected so detector-phase tasks land in recycled
  // slots rather than fresh slab memory.
  for (int round = 0; round < 4; ++round) {
    sched.run([&] {
      rt::TaskGroup g;
      for (int i = 0; i < 128; ++i) sched.spawn(g, [] {});
      sched.wait(g);
    });
  }

  std::vector<double> v(256, 0.0);
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    // Disjoint writes from recycled slots are clean on every schedule.
    sched.run([&] {
      rt::TaskGroup g;
      for (int i = 0; i < 256; ++i) {
        sched.spawn(g, [&v, i] { race::write(&v[i]); });
      }
      sched.wait(g);
    });
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_GE(replay.tasks_executed(), 256u);
  }
  // And a real conflict through the same recycled slots is still caught.
  double x = 0.0;
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    sched.spawn(g, [&] { race::write(&x); });
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    EXPECT_GE(replay.finish().size(), 1u);
  }
}

TEST_F(FastTrackTest, CommonLockSerializesParallelWrites) {
  // Lock edges order the critical sections in the observed schedule:
  // mutex-serialized writes never race, on any interleaving.
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  double x = 0.0;
  std::mutex m;
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    for (int i = 0; i < 4; ++i) {
      sched.spawn(g, [&] {
        race::scoped_lock<std::mutex> lock(m, "x-lock");
        race::write(&x);
        x += 1.0;
      });
    }
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_EQ(replay.tasks_executed(), 4u);
  }
}

TEST_F(FastTrackTest, ConcurrentReadersPromoteToAReadVector) {
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  const double x = 42.0;
  std::atomic<bool> child_read{false};
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::read(&x);
      child_read.store(true, std::memory_order_release);
    });
    // Force the orders: the child's read lands first, then the parallel
    // continuation reads from a different slot — the shadow word must
    // keep BOTH epochs (promotion to the read vector), and two ordered
    // reads of one address must not race.
    while (!child_read.load(std::memory_order_acquire)) std::this_thread::yield();
    race::read(&x);
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_GE(replay.fasttrack().read_promotions(), 1u);
    EXPECT_GE(replay.fasttrack().threads_seen(), 2u);
  }
}

TEST_F(FastTrackTest, StridedAccessesWithDisjointParityDoNotRace) {
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  std::vector<double> v(64, 0.0);
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    sched.spawn(g, [&] { race::write(v.data(), 32, 2); });
    sched.spawn(g, [&] { race::write(v.data() + 1, 32, 2); });
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << dump(replay.finish());
    EXPECT_GE(replay.granules_checked(), 64u);
  }
}

TEST_F(FastTrackTest, DuplicatePairsAreCoalesced) {
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  std::vector<double> v(16, 0.0);
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    // Two tasks conflicting on 16 granules: every granule is found, but
    // reports collapse per task pair. Either task can be the "prior"
    // side of a granule when the bodies overlap, so at most two
    // orientations of the one pair surface.
    sched.spawn(g, [&] { race::write(v.data(), v.size()); });
    sched.spawn(g, [&] { race::write(v.data(), v.size()); });
    sched.wait(g);
    const auto& reports = replay.finish();
    EXPECT_GE(reports.size(), 1u) << dump(reports);
    EXPECT_LE(reports.size(), 2u) << dump(reports);
    EXPECT_EQ(replay.races_found(), v.size());
  }
}

TEST_F(FastTrackTest, ProvenanceChainsAreRootFirstAndCarryRegions) {
  rt::Scheduler sched(config_for(race::Mode::kFastTrack));
  double x = 0.0;
  {
    race::Replay replay(sched, race::Mode::kFastTrack);
    race::region scope("outer-kernel");
    rt::TaskGroup g;
    sched.spawn(g, [&] {
      race::write(&x);
      rt::TaskGroup inner;
      sched.spawn(inner, [&] { race::write(&x); });
      sched.wait(inner);
    });
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    const auto& reports = replay.finish();
    ASSERT_FALSE(reports.empty());
    for (const auto& r : reports) {
      ASSERT_FALSE(r.prior_chain.empty());
      ASSERT_FALSE(r.current_chain.empty());
      EXPECT_EQ(r.prior_chain.front(), "root");
      EXPECT_EQ(r.current_chain.front(), "root");
    }
    EXPECT_TRUE(any_chain_mentions(reports, "outer-kernel")) << dump(reports);
  }
}

TEST_F(FastTrackTest, BackToBackSessionsStartClean) {
  // The parallel hook is process-global; a finished session must fully
  // detach so the next one starts with fresh shadow state.
  double x = 0.0;
  for (int round = 0; round < 2; ++round) {
    rt::Scheduler sched(config_for(race::Mode::kFastTrack));
    race::Replay replay(sched, race::Mode::kFastTrack);
    rt::TaskGroup g;
    sched.spawn(g, [&] { race::write(&x); });
    sched.wait(g);
    EXPECT_TRUE(replay.finish().empty()) << "round " << round;
  }
}

// ---------------------------------------------------------------------
// 2. Clean certification: every Table-2 app replays race-free and
//    verifies under the serial-elision schedule.
// ---------------------------------------------------------------------

// The app name is held as std::string, not const char*: gtest prints a
// pointer parameter with its load address, which would put an
// ASLR-dependent value into every discovered ctest name.
class RaceCleanTest
    : public ::testing::TestWithParam<std::tuple<std::string, race::Mode>> {
};

TEST_P(RaceCleanTest, AppRunsWithoutRaces) {
  const auto& [name, mode] = GetParam();
  if (!mode_enabled(mode)) GTEST_SKIP() << "disabled by DWS_RACE_MODE";
  auto app = apps::make_app(name, apps::Scale::kSmall);
  ASSERT_NE(app, nullptr);
  rt::Scheduler sched(config_for(mode));
  race::Replay replay(sched, mode);
  app->run(sched);
  const auto& reports = replay.finish();
  EXPECT_TRUE(reports.empty()) << dump(reports);
  EXPECT_GT(replay.granules_checked(), 0u)
      << "app is not annotated — the clean result is vacuous";
  EXPECT_EQ(app->verify(), "");
}

std::string clean_test_name(
    const ::testing::TestParamInfo<RaceCleanTest::ParamType>& info) {
  return std::get<0>(info.param) + mode_tag(std::get<1>(info.param));
}

const std::vector<std::string> kTable2Apps(std::begin(apps::kAppNames),
                                           std::end(apps::kAppNames));

INSTANTIATE_TEST_SUITE_P(Table2, RaceCleanTest,
                         ::testing::Combine(::testing::ValuesIn(kTable2Apps),
                                            ::testing::ValuesIn(kBothModes)),
                         clean_test_name);

// ---------------------------------------------------------------------
// 3. Seeded racy mutants: one representative broken kernel per app
//    pattern. Each must be flagged, with provenance naming the mutant.
// ---------------------------------------------------------------------

/// Runs `kernel` under every enabled mode and checks it is flagged with
/// provenance pointing at `region_name` in each. The mutants only
/// annotate (no real conflicting stores), so the FastTrack leg is clean
/// under TSan even though the modeled conflict must be caught.
template <typename Kernel>
void expect_mutant_flagged(const char* region_name, Kernel&& kernel) {
  for (race::Mode mode : kBothModes) {
    if (!mode_enabled(mode)) continue;
    SCOPED_TRACE(mode_tag(mode));
    rt::Scheduler sched(config_for(mode));
    race::Replay replay(sched, mode);
    {
      race::region scope(region_name);
      kernel(sched);
    }
    const auto& reports = replay.finish();
    ASSERT_FALSE(reports.empty()) << "mutant " << region_name << " not flagged";
    EXPECT_TRUE(any_chain_mentions(reports, region_name)) << dump(reports);
  }
}

TEST(RaceMutantTest, FftSharedScratchBetweenHalves) {
  // Mutant: both recursive halves use the SAME scratch range instead of
  // disjoint halves.
  expect_mutant_flagged("FFT-mutant", [](rt::Scheduler& sched) {
    std::vector<double> scratch(64, 0.0);
    rt::parallel_invoke(
        sched, [&] { race::write(scratch.data(), 64); },
        [&] { race::write(scratch.data(), 64); });
  });
}

TEST(RaceMutantTest, PnnSharedGradientWithoutReduction) {
  // Mutant: map tasks accumulate into one shared gradient vector instead
  // of task-local partials.
  expect_mutant_flagged("PNN-mutant", [](rt::Scheduler& sched) {
    std::vector<double> grad(32, 0.0);
    rt::parallel_for(sched, 0, 64, 8, [&](std::int64_t, std::int64_t) {
      race::read(grad.data(), grad.size());
      race::write(grad.data(), grad.size());
    });
  });
}

TEST(RaceMutantTest, CholeskyFusedScaleAndUpdate) {
  // Mutant: the column-k scale and the trailing update run in ONE
  // parallel_for, so updates read column k while the scale rewrites it.
  expect_mutant_flagged("Cholesky-mutant", [](rt::Scheduler& sched) {
    const std::size_t n = 16, k = 0;
    std::vector<double> l(n * n, 1.0);
    double* lp = l.data();
    rt::parallel_for(sched, 1, static_cast<std::int64_t>(n), 4,
                     [lp, n, k](std::int64_t b, std::int64_t e) {
                       race::write(lp + b * n + k,
                                   static_cast<std::size_t>(e - b),
                                   static_cast<std::ptrdiff_t>(n));
                       race::read(lp + (k + 1) * n + k, n - k - 1,
                                  static_cast<std::ptrdiff_t>(n));
                     });
  });
}

TEST(RaceMutantTest, LuEliminationRangeIncludesPivotRow) {
  // Mutant: the update range starts at k instead of k+1 — the pivot row
  // is rewritten while every other row reads it.
  expect_mutant_flagged("LU-mutant", [](rt::Scheduler& sched) {
    const std::size_t n = 16, k = 2;
    std::vector<double> lu(n * n, 1.0);
    double* p = lu.data();
    rt::parallel_for(sched, static_cast<std::int64_t>(k),
                     static_cast<std::int64_t>(n), 4,
                     [p, n, k](std::int64_t rb, std::int64_t re) {
                       race::read(p + k * n + k, n - k);
                       for (std::int64_t i = rb; i < re; ++i) {
                         race::write(p + i * n + k, n - k);
                       }
                     });
  });
}

TEST(RaceMutantTest, GeEliminationClobbersPivotRhs) {
  // Mutant: like LU but on the right-hand side — b[k] is read by every
  // row update while the k-th task overwrites it.
  expect_mutant_flagged("GE-mutant", [](rt::Scheduler& sched) {
    const std::size_t n = 16, k = 1;
    std::vector<double> b(n, 1.0);
    double* bp = b.data();
    rt::parallel_for(sched, static_cast<std::int64_t>(k),
                     static_cast<std::int64_t>(n), 4,
                     [bp, k](std::int64_t rb, std::int64_t re) {
                       race::read(bp + k);
                       for (std::int64_t i = rb; i < re; ++i) {
                         race::write(bp + i);
                       }
                     });
  });
}

TEST(RaceMutantTest, HeatInPlaceJacobi) {
  // Mutant: Jacobi without the double buffer — rows are updated in place
  // while neighbouring tasks read them.
  expect_mutant_flagged("Heat-mutant", [](rt::Scheduler& sched) {
    const std::size_t rows = 32, cols = 16;
    std::vector<double> g(rows * cols, 0.0);
    double* gp = g.data();
    rt::parallel_for(sched, 1, static_cast<std::int64_t>(rows) - 1, 4,
                     [gp, cols](std::int64_t rb, std::int64_t re) {
                       for (std::int64_t r = rb; r < re; ++r) {
                         race::read(gp + (r - 1) * cols, 3 * cols);
                         race::write(gp + r * cols + 1, cols - 2);
                       }
                     });
  });
}

TEST(RaceMutantTest, SorBothColorsInOneSweep) {
  // Mutant: red and black cells updated in the same sweep — a row's
  // writes hit cells its neighbours read in the same parallel region.
  expect_mutant_flagged("SOR-mutant", [](rt::Scheduler& sched) {
    const std::size_t rows = 32, cols = 16;
    std::vector<double> g(rows * cols, 0.0);
    double* gp = g.data();
    rt::parallel_for(sched, 1, static_cast<std::int64_t>(rows) - 1, 4,
                     [gp, cols](std::int64_t rb, std::int64_t re) {
                       for (std::int64_t r = rb; r < re; ++r) {
                         race::write(gp + r * cols + 1, cols - 2);
                         race::read(gp + (r - 1) * cols, 3 * cols);
                       }
                     });
  });
}

TEST(RaceMutantTest, MergesortOverlappingMergeBuffers) {
  // Mutant: both halves merge through overlapping scratch ranges.
  expect_mutant_flagged("Mergesort-mutant", [](rt::Scheduler& sched) {
    std::vector<std::int64_t> buf(64, 0);
    rt::parallel_invoke(
        sched, [&] { race::write(buf.data(), 48); },
        [&] { race::write(buf.data() + 16, 48); });
  });
}

TEST(RaceMutantTest, PnnCombineMissingTheLock) {
  // Mutant of PNN's reduction: every leaf folds its partial into the
  // shared gradient accumulator under the combine lock — except one,
  // which "forgot" it. Both modes must flag that pair and name the lock
  // that would have serialized it: the unlocked leaf takes part in no
  // lock edge, so even FastTrack's observed-schedule ordering cannot
  // serialize it against the locked leaves.
  for (race::Mode mode : kBothModes) {
    if (!mode_enabled(mode)) continue;
    SCOPED_TRACE(mode_tag(mode));
    rt::Scheduler sched(config_for(mode));
    race::Replay replay(sched, mode);
    {
      race::region scope("PNN-combine-mutant");
      std::vector<double> acc(16, 0.0);
      std::mutex m;
      rt::parallel_for(sched, 0, 64, 8,
                       [&](std::int64_t b, std::int64_t /*e*/) {
                         if (b == 0) {
                           // The missing-lock leaf.
                           race::write(acc.data(), acc.size());
                         } else {
                           race::scoped_lock<std::mutex> lock(m,
                                                              "combine-lock");
                           race::write(acc.data(), acc.size());
                         }
                       });
    }
    const auto& reports = replay.finish();
    ASSERT_FALSE(reports.empty()) << "missing-lock combine not flagged";
    EXPECT_TRUE(any_chain_mentions(reports, "PNN-combine-mutant"))
        << dump(reports);
    // Lock provenance: one side held combine-lock, the other nothing.
    bool provenance_ok = false;
    for (const auto& r : reports) {
      const bool one_sided =
          (r.prior_locks.empty() && r.current_locks.size() == 1 &&
           r.current_locks[0] == "combine-lock") ||
          (r.current_locks.empty() && r.prior_locks.size() == 1 &&
           r.prior_locks[0] == "combine-lock");
      if (one_sided) provenance_ok = true;
    }
    EXPECT_TRUE(provenance_ok) << dump(reports);
    EXPECT_NE(dump(reports).find("would have serialized"), std::string::npos);
  }
}

TEST(RaceMutantTest, BlockedLuStaleTileRead) {
  // Mutant of a tiled LU's phase structure: the GEMM trailing update runs
  // in the SAME parallel region as the U-solve, so gemm(i, j, k) reads
  // tile (I, K) while trsm_u is still writing it — a stale-tile race.
  for (race::Mode mode : kBothModes) {
    if (!mode_enabled(mode)) continue;
    SCOPED_TRACE(mode_tag(mode));
    rt::Scheduler sched(config_for(mode));
    race::Replay replay(sched, mode);
    {
      race::region scope("tiled-LU-mutant");
      const std::size_t n = 16, b = 4;
      std::vector<double> lu(n * n, 1.0);
      double* p = lu.data();
      // Tiles at block coordinates: diagonal (1,1) rows/cols [4,8).
      rt::parallel_invoke(
          sched,
          [&] {
            // trsm_u: writes tile (1, 0) — rows [4,8) cols [0,4).
            for (std::size_t r = b; r < 2 * b; ++r) race::write(p + r * n, b);
          },
          [&] {
            // gemm(1, 1, 0): reads tiles (1, 0), (0, 1), writes (1, 1).
            for (std::size_t r = b; r < 2 * b; ++r) race::read(p + r * n, b);
            for (std::size_t r = 0; r < b; ++r) race::read(p + r * n + b, b);
            for (std::size_t r = b; r < 2 * b; ++r) {
              race::write(p + r * n + b, b);
            }
          });
    }
    const auto& reports = replay.finish();
    ASSERT_FALSE(reports.empty()) << "stale-tile mutant not flagged";
    EXPECT_TRUE(any_chain_mentions(reports, "tiled-LU-mutant"))
        << dump(reports);
    // No locks anywhere near the tile phases: the report must say so.
    EXPECT_NE(dump(reports).find("no locks held by either access"),
              std::string::npos)
        << dump(reports);
  }
}

// ---------------------------------------------------------------------
// 4. Simulator-DAG certification: every DagProfile generator's TaskDag,
//    executed as the fork-join program it encodes, replays clean — the
//    simulated DAGs carry the same certificate as the real kernels.
// ---------------------------------------------------------------------

class SimDagCertTest
    : public ::testing::TestWithParam<std::tuple<std::string, race::Mode>> {};

TEST_P(SimDagCertTest, ProfileDagReplaysClean) {
  const auto [profile_name, mode] = GetParam();
  if (!mode_enabled(mode)) GTEST_SKIP() << "disabled by DWS_RACE_MODE";
  const apps::SimAppProfile profile = apps::make_sim_profile(profile_name);
  ASSERT_EQ(profile.dag.validate(), "");
  rt::Scheduler sched(config_for(mode));
  race::Replay replay(sched, mode);
  const apps::DagReplayStats stats = apps::replay_dag(sched, profile.dag);
  const auto& reports = replay.finish();
  EXPECT_TRUE(reports.empty()) << dump(reports);
  ASSERT_TRUE(stats.clean()) << stats.defects.front();
  EXPECT_EQ(stats.executions, profile.dag.size());
  EXPECT_NEAR(stats.work_replayed, profile.dag.total_work(),
              1e-9 * profile.dag.total_work());
  EXPECT_GT(replay.granules_checked(), 0u)
      << "DAG replay is not annotated — the clean result is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, SimDagCertTest,
    ::testing::Combine(::testing::ValuesIn(apps::sim_profile_names()),
                       ::testing::ValuesIn(kBothModes)),
    [](const ::testing::TestParamInfo<SimDagCertTest::ParamType>& info) {
      return std::get<0>(info.param) + mode_tag(std::get<1>(info.param));
    });

TEST(SimDagCertTest, MergesortDagReplaysClean) {
  const sim::TaskDag dag = apps::make_mergesort_dag(8, 25.0, 8.0, 0.6);
  ASSERT_EQ(dag.validate(), "");
  for (race::Mode mode : kBothModes) {
    if (!mode_enabled(mode)) continue;
    SCOPED_TRACE(mode_tag(mode));
    rt::Scheduler sched(config_for(mode));
    race::Replay replay(sched, mode);
    const apps::DagReplayStats stats = apps::replay_dag(sched, dag);
    EXPECT_TRUE(replay.finish().empty());
    EXPECT_TRUE(stats.clean()) << stats.defects.front();
    EXPECT_EQ(stats.executions, dag.size());
  }
}

TEST(SimDagCertTest, ReplayFlagsNestedChainClaimingOuterJoin) {
  // Adversarial DAG that PASSES TaskDag::validate() (every node enabled
  // exactly once, acyclic, reachable) but is not a well-formed
  // fork-join program: the inner split's child chain terminates at the
  // OUTER join instead of its own. The replay certificate catches what
  // static validation cannot.
  sim::TaskDag dag;
  const sim::NodeId s = dag.add_node(1.0);   // outer split
  const sim::NodeId a = dag.add_node(1.0);   // child: inner split
  const sim::NodeId b = dag.add_node(1.0);   // child: plain chain
  const sim::NodeId j = dag.add_node(1.0);   // outer join
  const sim::NodeId a1 = dag.add_node(1.0);  // inner child
  const sim::NodeId ja = dag.add_node(1.0);  // inner join
  dag.set_root(s);
  dag.add_spawn(s, a);
  dag.add_spawn(s, b);
  dag.set_continuation(s, j);
  dag.set_continuation(b, j);
  dag.add_spawn(a, a1);
  dag.set_continuation(a, ja);
  dag.set_continuation(a1, j);  // WRONG: claims the outer join
  dag.set_continuation(ja, j);
  ASSERT_EQ(dag.validate(), "") << "defect must be invisible to validate()";
  rt::Scheduler sched(make_config(2));
  race::Replay replay(sched);
  const apps::DagReplayStats stats = apps::replay_dag(sched, dag);
  replay.finish();
  EXPECT_FALSE(stats.clean())
      << "replay certified a DAG that is not a fork-join program";
}

TEST(SimDagCertTest, ReplayFlagsSplitWithoutAJoin) {
  // A split with no continuation also passes validate() (the enabling
  // discipline has nothing to say about a missing join), but the spawned
  // child's completion signal has nowhere to land — not a fork-join
  // program, and the replay says so.
  sim::TaskDag dag;
  const sim::NodeId root = dag.add_node(1.0);
  const sim::NodeId child = dag.add_node(1.0);
  dag.set_root(root);
  dag.add_spawn(root, child);  // spawned, but root has no join
  ASSERT_EQ(dag.validate(), "");
  rt::Scheduler sched(make_config(2));
  race::Replay replay(sched);
  const apps::DagReplayStats stats = apps::replay_dag(sched, dag);
  replay.finish();
  EXPECT_FALSE(stats.clean());
}

// ---------------------------------------------------------------------
// 5. Seeded-input replay sweep: one serial replay certifies one DAG, so
//    input-dependent kernels are swept across N seeded inputs.
// ---------------------------------------------------------------------

/// Runs one freshly-constructed app instance per enabled mode (run()
/// mutates the app, so each leg gets its own copy) and expects a clean,
/// verified result. `what` labels failures (input size, seed, ...).
template <typename MakeApp>
void expect_swept_input_clean(const std::string& what, MakeApp&& make) {
  for (race::Mode mode : kBothModes) {
    if (!mode_enabled(mode)) continue;
    SCOPED_TRACE(mode_tag(mode) + " " + what);
    auto app = make();
    rt::Scheduler sched(config_for(mode));
    race::Replay replay(sched, mode);
    app.run(sched);
    const auto& reports = replay.finish();
    EXPECT_TRUE(reports.empty()) << dump(reports);
    EXPECT_EQ(app.verify(), "");
  }
}

TEST(RaceSweepTest, MergesortCertifiesAcrossSeededInputs) {
  util::Xoshiro256 rng(0xD5EEDCAFEu);
  for (int s = 0; s < sweep_n(); ++s) {
    // Sizes straddle the sort/merge cutoffs, so the spawn tree (not just
    // the data) changes per input.
    const std::size_t n = 512 + static_cast<std::size_t>(
                                    rng.next_below(6 * 1024));
    const std::uint64_t seed = rng.next();
    expect_swept_input_clean(
        "n=" + std::to_string(n) + " seed=" + std::to_string(seed),
        [&] { return apps::MergesortApp(n, seed); });
  }
}

TEST(RaceSweepTest, FftCertifiesAcrossSizes) {
  util::Xoshiro256 rng(0xFF7F5EEDu);
  for (int s = 0; s < sweep_n(); ++s) {
    // Power-of-two sizes spanning several recursion depths.
    const std::size_t n = std::size_t{1} << (6 + rng.next_below(6));
    const std::uint64_t seed = rng.next();
    expect_swept_input_clean(
        "n=" + std::to_string(n) + " seed=" + std::to_string(seed),
        [&] { return apps::FftApp(n, seed); });
  }
}

// ---------------------------------------------------------------------
// 6. Mode agreement. FastTrack's replace-at-begin semantics make the
//    modeled relation for lock-free programs schedule-independent
//    (spawn/join edges only) — exactly the SP relation ESP-bags
//    certifies. On one worker the schedule is the serial elision, so
//    the two modes must return the same verdict for the whole corpus.
// ---------------------------------------------------------------------

class RaceModeAgreementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!mode_enabled(race::Mode::kSpBags) ||
        !mode_enabled(race::Mode::kFastTrack)) {
      GTEST_SKIP() << "agreement needs both modes enabled (DWS_RACE_MODE)";
    }
  }
};

TEST_F(RaceModeAgreementTest, OneWorkerVerdictsMatchAcrossTheAppCorpus) {
  for (const char* name : apps::kAppNames) {
    SCOPED_TRACE(name);
    std::uint64_t found[2] = {0, 0};
    for (race::Mode mode : kBothModes) {
      auto app = apps::make_app(name, apps::Scale::kTiny);
      ASSERT_NE(app, nullptr);
      rt::Scheduler sched(make_config(1));
      race::Replay replay(sched, mode);
      app->run(sched);
      replay.finish();
      found[static_cast<std::size_t>(mode)] = replay.races_found();
      EXPECT_EQ(app->verify(), "") << mode_tag(mode);
    }
    EXPECT_EQ(found[0], 0u) << "spbags flagged a Table-2 app";
    EXPECT_EQ(found[1], 0u) << "fasttrack disagrees with spbags";
  }
}

TEST_F(RaceModeAgreementTest, OneWorkerVerdictsMatchOnSeededRacyKernels) {
  // Overlapping-by-one-granule sibling writes at seeded widths: both
  // modes must flag every instance.
  util::Xoshiro256 rng(0xA62EE111u);
  for (int s = 0; s < sweep_n(); ++s) {
    const std::size_t span = 8 + static_cast<std::size_t>(rng.next_below(57));
    bool raced[2] = {false, false};
    for (race::Mode mode : kBothModes) {
      rt::Scheduler sched(make_config(1));
      race::Replay replay(sched, mode);
      {
        race::region scope("agreement-mutant");
        std::vector<double> buf(2 * span + 1, 0.0);
        rt::TaskGroup g;
        sched.spawn(g, [&] { race::write(buf.data(), span + 1); });
        sched.spawn(g, [&] { race::write(buf.data() + span, span); });
        sched.wait(g);
      }
      raced[static_cast<std::size_t>(mode)] = !replay.finish().empty();
    }
    EXPECT_TRUE(raced[0]) << "span=" << span;
    EXPECT_EQ(raced[0], raced[1]) << "span=" << span;
  }
}

}  // namespace
}  // namespace dws

// Custom driver: gtest_main's main is not pulled in because this TU
// defines one. --sweep=N (or DWS_RACE_SWEEP=N) widens the seeded-input
// sweep; the default stays small so the plain ctest run is fast.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);  // strips gtest's own flags
  int sweep = 3;
  if (const char* env = std::getenv("DWS_RACE_SWEEP"); env != nullptr) {
    sweep = std::atoi(env);
  }
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sweep=", 8) == 0) {
      sweep = std::atoi(argv[i] + 8);
    }
  }
  dws::g_sweep = sweep < 1 ? 1 : (sweep > 16 ? 16 : sweep);
  return RUN_ALL_TESTS();
}

// Unit + concurrency tests for the in-process core allocation table.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/core_table.hpp"

namespace dws {
namespace {

TEST(CoreTable, StartsAllFree) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  EXPECT_EQ(t.num_cores(), 16u);
  EXPECT_EQ(t.num_programs(), 2u);
  EXPECT_EQ(t.count_free(), 16u);
  for (CoreId c = 0; c < 16; ++c) EXPECT_EQ(t.user_of(c), kNoProgram);
}

TEST(CoreTable, RegisterHandsOutSequentialIds) {
  CoreTableLocal local(8, 4);
  CoreTable& t = local.table();
  EXPECT_EQ(t.register_program(), 1u);
  EXPECT_EQ(t.register_program(), 2u);
  EXPECT_EQ(t.register_program(), 3u);
}

TEST(CoreTable, HomePartitionIsEvenAndContiguous) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  for (CoreId c = 0; c < 8; ++c) EXPECT_EQ(t.home_of(c), 1u) << "core " << c;
  for (CoreId c = 8; c < 16; ++c) EXPECT_EQ(t.home_of(c), 2u) << "core " << c;
}

TEST(CoreTable, HomePartitionCoversAllCoresForUnevenSplit) {
  // 7 cores, 2 programs: every core must have exactly one home, and the
  // split sizes must differ by at most one.
  CoreTableLocal local(7, 2);
  CoreTable& t = local.table();
  unsigned count1 = 0, count2 = 0;
  for (CoreId c = 0; c < 7; ++c) {
    const ProgramId h = t.home_of(c);
    ASSERT_TRUE(h == 1u || h == 2u);
    (h == 1u ? count1 : count2)++;
  }
  EXPECT_EQ(count1 + count2, 7u);
  EXPECT_LE(count1 > count2 ? count1 - count2 : count2 - count1, 1u);
}

TEST(CoreTable, HomeRangesAreContiguousForManyShapes) {
  for (unsigned k : {1u, 2u, 3u, 4u, 7u, 8u, 15u, 16u, 31u, 64u}) {
    for (unsigned m : {1u, 2u, 3u, 4u, 5u, 8u}) {
      CoreTableLocal local(k, m);
      CoreTable& t = local.table();
      ProgramId prev = 0;
      for (CoreId c = 0; c < k; ++c) {
        const ProgramId h = t.home_of(c);
        EXPECT_GE(h, prev) << "k=" << k << " m=" << m << " core=" << c;
        EXPECT_GE(h, 1u);
        EXPECT_LE(h, m);
        prev = h;
      }
      EXPECT_EQ(t.home_of(0), 1u);
      if (m <= k) {
        // With at least as many cores as programs, every program gets a
        // non-empty home range, so the last core homes the last program.
        EXPECT_EQ(t.home_of(k - 1), m);
      }
    }
  }
}

TEST(CoreTable, ClaimHomeCoresRealizesEquipartition) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  const ProgramId p1 = t.register_program();
  const ProgramId p2 = t.register_program();
  const auto c1 = t.claim_home_cores(p1);
  const auto c2 = t.claim_home_cores(p2);
  EXPECT_EQ(c1.size(), 8u);
  EXPECT_EQ(c2.size(), 8u);
  EXPECT_EQ(t.count_free(), 0u);
  EXPECT_EQ(t.count_active(p1), 8u);
  EXPECT_EQ(t.count_active(p2), 8u);
}

TEST(CoreTable, ClaimIsExclusive) {
  CoreTableLocal local(4, 2);
  CoreTable& t = local.table();
  EXPECT_TRUE(t.try_claim(0, 1));
  EXPECT_FALSE(t.try_claim(0, 2));  // occupied
  EXPECT_EQ(t.user_of(0), 1u);
}

TEST(CoreTable, ReleaseRequiresOwnership) {
  CoreTableLocal local(4, 2);
  CoreTable& t = local.table();
  ASSERT_TRUE(t.try_claim(0, 1));
  EXPECT_FALSE(t.release(0, 2));  // not the user
  EXPECT_EQ(t.user_of(0), 1u);
  EXPECT_TRUE(t.release(0, 1));
  EXPECT_EQ(t.user_of(0), kNoProgram);
  EXPECT_FALSE(t.release(0, 1));  // already free
}

TEST(CoreTable, ReclaimOnlyWorksOnHomeCoresHeldByOthers) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  // Program 2 borrows core 0 (home of program 1).
  ASSERT_TRUE(t.try_claim(0, 2));
  EXPECT_FALSE(t.try_reclaim(0, 2));   // core 0 is not p2's home
  EXPECT_FALSE(t.try_reclaim(8, 1));   // core 8 is not p1's home
  EXPECT_FALSE(t.try_reclaim(1, 1));   // core 1 is free, reclaim is not claim
  EXPECT_TRUE(t.try_reclaim(0, 1));    // take it back
  EXPECT_EQ(t.user_of(0), 1u);
  EXPECT_FALSE(t.try_reclaim(0, 1));   // already ours
}

TEST(CoreTable, BorrowedCountersTrackLending) {
  CoreTableLocal local(16, 2);
  CoreTable& t = local.table();
  EXPECT_EQ(t.count_borrowed_from(1), 0u);
  ASSERT_TRUE(t.try_claim(0, 2));  // p2 borrows p1's core 0
  ASSERT_TRUE(t.try_claim(1, 2));  // and core 1
  ASSERT_TRUE(t.try_claim(8, 2));  // p2 uses its own core 8
  EXPECT_EQ(t.count_borrowed_from(1), 2u);
  EXPECT_EQ(t.count_borrowed_from(2), 0u);
  const auto borrowed = t.borrowed_home_cores(1);
  ASSERT_EQ(borrowed.size(), 2u);
  EXPECT_EQ(borrowed[0], 0u);
  EXPECT_EQ(borrowed[1], 1u);
}

TEST(CoreTable, UnregisterReleasesEverything) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  ASSERT_TRUE(t.try_claim(0, 1));
  ASSERT_TRUE(t.try_claim(5, 1));
  ASSERT_TRUE(t.try_claim(6, 2));
  t.unregister_program(1);
  EXPECT_EQ(t.count_active(1), 0u);
  EXPECT_EQ(t.user_of(6), 2u);  // other program untouched
  EXPECT_EQ(t.count_free(), 7u);
}

TEST(CoreTable, FreeAndUsedListsAreConsistent) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  ASSERT_TRUE(t.try_claim(2, 1));
  ASSERT_TRUE(t.try_claim(4, 2));
  const auto free = t.free_cores();
  EXPECT_EQ(free.size(), 6u);
  for (CoreId c : free) EXPECT_EQ(t.user_of(c), kNoProgram);
  const auto mine = t.cores_used_by(1);
  ASSERT_EQ(mine.size(), 1u);
  EXPECT_EQ(mine[0], 2u);
}

TEST(CoreTable, SingleProgramHomesEverything) {
  CoreTableLocal local(16, 1);
  CoreTable& t = local.table();
  const ProgramId p = t.register_program();
  for (CoreId c = 0; c < 16; ++c) EXPECT_EQ(t.home_of(c), p);
  EXPECT_EQ(t.claim_home_cores(p).size(), 16u);
}

TEST(CoreTable, MoreProgramsThanCoresStillPartitions) {
  CoreTableLocal local(2, 4);
  CoreTable& t = local.table();
  // 4 programs on 2 cores: programs without a home core may only use free
  // cores. Every core still has exactly one home in [1,4].
  for (CoreId c = 0; c < 2; ++c) {
    EXPECT_GE(t.home_of(c), 1u);
    EXPECT_LE(t.home_of(c), 4u);
  }
}

// Concurrency: claims on the same core from many threads must hand the
// core to exactly one claimer.
TEST(CoreTableLiveness, BindPublishesPidAndStartsEpochAtOne) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  const ProgramId p = t.register_program();
  EXPECT_EQ(t.liveness_os_pid(p), 0u);
  EXPECT_EQ(t.liveness_epoch(p), 0u);
  EXPECT_TRUE(t.bind_liveness(p, 4242));
  EXPECT_EQ(t.liveness_os_pid(p), 4242u);
  EXPECT_EQ(t.liveness_epoch(p), 1u);
}

TEST(CoreTableLiveness, HeartbeatAdvancesEpochMonotonically) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  const ProgramId p = t.register_program();
  ASSERT_TRUE(t.bind_liveness(p, 100));
  for (std::uint64_t e = 1; e <= 10; ++e) {
    EXPECT_EQ(t.liveness_epoch(p), e);
    t.heartbeat(p);
  }
  EXPECT_EQ(t.liveness_epoch(p), 11u);
}

TEST(CoreTableLiveness, OutOfRangeIdsAreUntracked) {
  CoreTableLocal local(4, 2);
  CoreTable& t = local.table();
  EXPECT_FALSE(t.bind_liveness(0, 1));  // kNoProgram is never tracked
  EXPECT_FALSE(t.bind_liveness(CoreTable::kLivenessSlots + 1, 1));
  EXPECT_EQ(t.liveness_epoch(CoreTable::kLivenessSlots + 1), 0u);
  EXPECT_EQ(t.liveness_os_pid(CoreTable::kLivenessSlots + 1), 0u);
  t.heartbeat(CoreTable::kLivenessSlots + 1);  // must not crash
}

TEST(CoreTableLiveness, RetireRequiresMatchingOsPid) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  const ProgramId p = t.register_program();
  ASSERT_TRUE(t.bind_liveness(p, 777));
  // Wrong expected pid: the CAS loses (protects against retiring a slot
  // that a recycled program id has since re-bound).
  EXPECT_FALSE(t.retire_liveness(p, 778));
  EXPECT_EQ(t.liveness_os_pid(p), 777u);
  // Matching pid wins exactly once — a second retire finds 0 and loses.
  EXPECT_TRUE(t.retire_liveness(p, 777));
  EXPECT_EQ(t.liveness_os_pid(p), 0u);
  EXPECT_FALSE(t.retire_liveness(p, 777));
}

TEST(CoreTableLiveness, UnregisterRetiresTheLivenessRecord) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  const ProgramId p = t.register_program();
  ASSERT_TRUE(t.bind_liveness(p, 555));
  t.unregister_program(p);
  // A clean exit leaves no liveness evidence, so no sweeper will ever
  // consider this id stale.
  EXPECT_EQ(t.liveness_os_pid(p), 0u);
}

TEST(CoreTableLiveness, RegisteredProgramsTracksRegistrations) {
  CoreTableLocal local(8, 4);
  CoreTable& t = local.table();
  EXPECT_EQ(t.registered_programs(), 0u);
  (void)t.register_program();
  (void)t.register_program();
  EXPECT_EQ(t.registered_programs(), 2u);
}

TEST(CoreTableLiveness, ForceReleaseAllFreesExactlyTheVictimsCores) {
  CoreTableLocal local(8, 2);
  CoreTable& t = local.table();
  const ProgramId p = t.register_program();
  const ProgramId q = t.register_program();
  t.claim_home_cores(p);  // cores 0-3
  t.claim_home_cores(q);  // cores 4-7
  const std::vector<CoreId> freed = t.force_release_all(q);
  EXPECT_EQ(freed.size(), 4u);
  EXPECT_EQ(t.count_active(q), 0u);
  EXPECT_EQ(t.count_active(p), 4u);  // survivor untouched
  EXPECT_EQ(t.count_free(), 4u);
  for (CoreId c : freed) EXPECT_EQ(t.user_of(c), kNoProgram);
}

TEST(CoreTableConcurrency, ExactlyOneClaimWinsPerCore) {
  constexpr unsigned kCores = 16;
  constexpr unsigned kThreads = 8;
  CoreTableLocal local(kCores, kThreads);
  CoreTable& t = local.table();

  std::atomic<unsigned> total_claims{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, &total_claims, pid = ProgramId(i + 1)] {
      unsigned won = 0;
      for (CoreId c = 0; c < kCores; ++c) {
        if (t.try_claim(c, pid)) ++won;
      }
      total_claims.fetch_add(won, std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(total_claims.load(), kCores);
  EXPECT_EQ(t.count_free(), 0u);
  unsigned sum = 0;
  for (unsigned i = 0; i < kThreads; ++i) sum += t.count_active(i + 1);
  EXPECT_EQ(sum, kCores);
}

// Concurrency: repeated claim/release churn never corrupts the table: at
// the end everything is free and no operation ever observed a torn state.
TEST(CoreTableConcurrency, ChurnLeavesTableConsistent) {
  constexpr unsigned kCores = 8;
  constexpr unsigned kThreads = 4;
  constexpr int kIters = 20000;
  CoreTableLocal local(kCores, kThreads);
  CoreTable& t = local.table();

  std::vector<std::thread> threads;
  for (unsigned i = 0; i < kThreads; ++i) {
    threads.emplace_back([&t, pid = ProgramId(i + 1)] {
      for (int it = 0; it < kIters; ++it) {
        const CoreId c = static_cast<CoreId>(it % kCores);
        if (t.try_claim(c, pid)) {
          // While held, the table must report us as the user.
          ASSERT_EQ(t.user_of(c), pid);
          ASSERT_TRUE(t.release(c, pid));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(t.count_free(), kCores);
}

}  // namespace
}  // namespace dws

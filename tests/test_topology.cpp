// The NUMA machine model and the locality-aware victim ordering built on
// it: metric properties of Topology::distance (symmetry, triangle
// inequality, identity), agreement between the synthetic layout and the
// simulator's socket split, and tier-by-tier sweeps of TieredVictimOrder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/topology.hpp"
#include "core/victim_order.hpp"
#include "sim/params.hpp"
#include "util/rng.hpp"

namespace dws {
namespace {

// ---------------------------------------------------------------- Topology

TEST(Topology, SyntheticTwoSocketMatchesThePaperTestbed) {
  // 2x Xeon E5620 = 16 logical cores in 2 sockets, split contiguously.
  const Topology t = Topology::synthetic(16, 2);
  EXPECT_EQ(t.num_cores(), 16u);
  EXPECT_EQ(t.num_sockets(), 2u);
  for (CoreId c = 0; c < 16; ++c) {
    EXPECT_EQ(t.socket_of(c), c < 8 ? 0u : 1u) << "core " << c;
  }
  EXPECT_EQ(t.distance(0, 7), DistanceTier::kNear);    // same socket
  EXPECT_EQ(t.distance(0, 8), DistanceTier::kFar);     // adjacent socket
  EXPECT_EQ(t.distance(15, 8), DistanceTier::kNear);
}

TEST(Topology, SyntheticMatchesSimParamsSocketSplit) {
  // The simulator's cache model and its victim ordering both read sockets
  // from this split: contiguous blocks of ceil(k / s) cores, with more
  // sockets than cores clamped to one core per socket.
  for (unsigned k : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 17u}) {
    for (unsigned s : {1u, 2u, 3u, 4u}) {
      sim::SimParams params;
      params.num_cores = k;
      params.num_sockets = s;
      const Topology t = params.topology();  // Topology::synthetic(k, s)
      ASSERT_EQ(t.num_cores(), k);
      const unsigned sockets = s <= k ? s : k;
      EXPECT_EQ(t.num_sockets(), sockets) << "k=" << k << " s=" << s;
      const unsigned per = (k + sockets - 1) / sockets;
      for (CoreId c = 0; c < k; ++c) {
        EXPECT_EQ(t.socket_of(c), c / per)
            << "k=" << k << " s=" << s << " core=" << c;
      }
    }
  }
}

TEST(Topology, LinearSocketChainSeparatesFarFromVeryFar) {
  // 4 sockets in a chain: 1 hop = FAR, 2+ hops = VERYFAR.
  const Topology t = Topology::synthetic(16, 4);
  EXPECT_EQ(t.distance(0, 4), DistanceTier::kFar);      // socket 0 -> 1
  EXPECT_EQ(t.distance(0, 8), DistanceTier::kVeryFar);  // socket 0 -> 2
  EXPECT_EQ(t.distance(0, 12), DistanceTier::kVeryFar); // socket 0 -> 3
  EXPECT_EQ(t.distance(4, 8), DistanceTier::kFar);      // socket 1 -> 2
}

TEST(Topology, DistanceIsAMetricOnTiers) {
  // Symmetry, identity and the triangle inequality over the numeric tier
  // values, for every shape the other layers construct. The triangle
  // property is what makes "exhaust near tiers first" meaningful: a
  // detour through a third core can never be shorter than the direct
  // tier.
  const Topology shapes[] = {
      Topology::synthetic(1, 1),  Topology::synthetic(8, 1),
      Topology::synthetic(16, 2), Topology::synthetic(16, 4),
      Topology::synthetic(12, 3), Topology::synthetic(7, 3),
  };
  for (const Topology& t : shapes) {
    const unsigned n = t.num_cores();
    for (CoreId a = 0; a < n; ++a) {
      EXPECT_EQ(t.distance(a, a), DistanceTier::kVeryNear);
      for (CoreId b = 0; b < n; ++b) {
        EXPECT_EQ(t.distance(a, b), t.distance(b, a))
            << "asymmetric at (" << a << "," << b << ")";
        for (CoreId c = 0; c < n; ++c) {
          EXPECT_LE(static_cast<int>(t.distance(a, c)),
                    static_cast<int>(t.distance(a, b)) +
                        static_cast<int>(t.distance(b, c)))
              << "triangle violated at (" << a << "," << b << "," << c << ")";
        }
      }
    }
  }
}

TEST(Topology, SocketCountIsClamped) {
  const Topology t = Topology::synthetic(4, 99);
  EXPECT_EQ(t.num_cores(), 4u);
  EXPECT_LE(t.num_sockets(), 4u);
  const Topology z = Topology::synthetic(4, 0);  // 0 means "at least 1"
  EXPECT_EQ(z.num_sockets(), 1u);
}

TEST(Topology, SocketIdsAbove255DoNotWrap) {
  // 600 cores in 300 two-core sockets: socket ids run past a byte.
  const Topology t = Topology::synthetic(600, 300);
  EXPECT_EQ(t.socket_of(599), 299u);
  EXPECT_EQ(t.socket_of(512), 256u);
  EXPECT_EQ(t.distance(0, 512), DistanceTier::kVeryFar);
  EXPECT_EQ(t.distance(510, 512), DistanceTier::kFar);   // socket 255 -> 256
  EXPECT_EQ(t.distance(512, 513), DistanceTier::kNear);  // both socket 256
}

// ------------------------------------------------------- TieredVictimOrder

TEST(TieredVictimOrder, SweepIsAPermutationWithNonDecreasingTiers) {
  // Three sockets in a chain: socket 0 sees NEAR, FAR and VERYFAR victims.
  const Topology topo = Topology::synthetic(12, 3);
  util::Xoshiro256 rng(42);
  for (unsigned self = 0; self < 12; ++self) {
    TieredVictimOrder order(topo, self, 12);
    ASSERT_EQ(order.size(), 11u);
    for (int sweep = 0; sweep < 4; ++sweep) {
      std::set<unsigned> seen;
      int prev_tier = -1;
      for (std::size_t i = 0; i < order.size(); ++i) {
        const VictimPick pick = order.next(rng);
        ASSERT_NE(pick.victim, kNoVictim);
        ASSERT_NE(pick.victim, self);
        ASSERT_LT(pick.victim, 12u);
        EXPECT_EQ(pick.tier, topo.distance(self, pick.victim));
        EXPECT_GE(static_cast<int>(pick.tier), prev_tier)
            << "tier order regressed mid-sweep";
        prev_tier = static_cast<int>(pick.tier);
        seen.insert(pick.victim);
      }
      EXPECT_EQ(seen.size(), 11u) << "sweep skipped or repeated a victim";
    }
  }
}

TEST(TieredVictimOrder, NearVictimsAreProbedBeforeRemoteOnes) {
  const Topology topo = Topology::synthetic(16, 2);
  util::Xoshiro256 rng(7);
  TieredVictimOrder order(topo, /*self=*/0, 16);
  // Cores 1..7 share socket 0 with the thief; they must be handed out
  // before any of 8..15, in every sweep, whatever the shuffles do.
  for (int sweep = 0; sweep < 8; ++sweep) {
    for (int i = 0; i < 7; ++i) {
      const VictimPick pick = order.next(rng);
      EXPECT_LT(pick.victim, 8u) << "remote victim before near exhausted";
      EXPECT_EQ(pick.tier, DistanceTier::kNear);
    }
    for (int i = 0; i < 8; ++i) {
      const VictimPick pick = order.next(rng);
      EXPECT_GE(pick.victim, 8u);
      EXPECT_EQ(pick.tier, DistanceTier::kFar);
    }
  }
}

TEST(TieredVictimOrder, SweepStartVariesAcrossSweeps) {
  const Topology topo = Topology::synthetic(16, 1);
  util::Xoshiro256 rng(3);
  const TieredVictimOrder order(topo, /*self=*/0, 16);
  // Every probe fails, so each sweep's first probe is its start slot
  // (or the next victim after it). Six identical first probes out of
  // 16 possible starts means the start draw is not happening.
  std::set<unsigned> first_probes;
  for (int s = 0; s < 6; ++s) {
    bool first = true;
    (void)order.sweep(rng, [&](VictimPick pick) {
      if (first) first_probes.insert(pick.victim);
      first = false;
      return false;
    });
  }
  EXPECT_GT(first_probes.size(), 1u);
}

/// Xoshiro256 that counts its draws.
struct CountingRng {
  util::Xoshiro256 inner{5};
  int draws = 0;
  std::uint64_t next_below(std::uint64_t bound) {
    ++draws;
    return inner.next_below(bound);
  }
};

TEST(TieredVictimOrder, ASweepDrawsExactlyOnce) {
  const Topology topo = Topology::synthetic(8, 2);
  const TieredVictimOrder order(topo, /*self=*/3, 8);
  CountingRng rng;
  int probes = 0;
  const VictimPick hit = order.sweep(rng, [&](VictimPick) {
    ++probes;
    return false;
  });
  EXPECT_EQ(hit.victim, kNoVictim);
  EXPECT_EQ(probes, 7);
  EXPECT_EQ(rng.draws, 1);
  // A sweep that hits on its first probe still drew once.
  (void)order.sweep(rng, [](VictimPick) { return true; });
  EXPECT_EQ(rng.draws, 2);
}

TEST(TieredVictimOrder, SingleWorkerHasNoVictims) {
  const Topology topo = Topology::synthetic(1, 1);
  CountingRng rng;
  TieredVictimOrder order(topo, 0, 1);
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(order.next(rng).victim, kNoVictim);
  bool probed = false;
  const VictimPick hit =
      order.sweep(rng, [&](VictimPick) { return probed = true; });
  EXPECT_EQ(hit.victim, kNoVictim);
  EXPECT_FALSE(probed);
  EXPECT_EQ(rng.draws, 0) << "a single-worker order must never draw";
}

}  // namespace
}  // namespace dws

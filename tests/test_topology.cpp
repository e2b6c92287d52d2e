// The NUMA machine model and the locality-aware victim ordering built on
// it: metric properties of Topology::distance (symmetry, triangle
// inequality, identity), agreement between the synthetic layout and the
// simulator's socket split, and tier-by-tier sweeps of TieredVictimOrder.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "core/config.hpp"
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
  EXPECT_FALSE(t.flat());
}

TEST(Topology, SyntheticMatchesSimParamsSocketSplit) {
  // The simulator's ceil-division split and the Topology factory must
  // agree on every (cores, sockets) shape, or the cache model and the
  // victim ordering would disagree about which steals are remote.
  for (unsigned k : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 17u}) {
    for (unsigned s : {1u, 2u, 3u, 4u}) {
      sim::SimParams params;
      params.num_cores = k;
      params.num_sockets = s;
      const Topology t = params.topology();
      ASSERT_EQ(t.num_cores(), k);
      for (CoreId c = 0; c < k; ++c) {
        if (s <= k) {
          EXPECT_EQ(t.socket_of(c), params.socket_of(c))
              << "k=" << k << " s=" << s << " core=" << c;
        }
      }
    }
  }
}

TEST(Topology, SmtSiblingsAreVeryNear) {
  // 8 logical cores, 2 sockets, 2-way SMT: {0,1} share a physical core.
  const Topology t = Topology::synthetic(8, 2, 2);
  EXPECT_EQ(t.distance(0, 1), DistanceTier::kVeryNear);
  EXPECT_EQ(t.distance(0, 2), DistanceTier::kNear);  // same socket, other core
  EXPECT_EQ(t.distance(0, 3), DistanceTier::kNear);
  EXPECT_EQ(t.distance(0, 4), DistanceTier::kFar);   // other socket
  EXPECT_EQ(t.group_of(0), t.group_of(1));
  EXPECT_NE(t.group_of(1), t.group_of(2));
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
      Topology::uniform(1),         Topology::uniform(8),
      Topology::synthetic(16, 2),   Topology::synthetic(16, 4),
      Topology::synthetic(12, 3, 2), Topology::synthetic(8, 2, 2),
      Topology::synthetic(7, 3),
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

TEST(Topology, UniformIsFlat) {
  EXPECT_TRUE(Topology::uniform(8).flat());
  EXPECT_TRUE(Topology::uniform(1).flat());
  EXPECT_FALSE(Topology::synthetic(8, 2).flat());
  EXPECT_FALSE(Topology::synthetic(8, 1, 2).flat());  // SMT pairs break it
}

TEST(Topology, SocketAndSmtCountsAreClamped) {
  const Topology t = Topology::synthetic(4, 99, 99);
  EXPECT_EQ(t.num_cores(), 4u);
  EXPECT_LE(t.num_sockets(), 4u);
  const Topology z = Topology::synthetic(4, 0, 0);  // 0 means "at least 1"
  EXPECT_EQ(z.num_sockets(), 1u);
}

TEST(Topology, DetectAlwaysYieldsAValidModel) {
  // Whatever sysfs says (or doesn't — containers), the result must be a
  // well-formed, symmetric model of the requested width.
  const Topology t = Topology::detect(4);
  ASSERT_EQ(t.num_cores(), 4u);
  EXPECT_GE(t.num_sockets(), 1u);
  for (CoreId a = 0; a < 4; ++a) {
    EXPECT_LT(t.socket_of(a), t.num_sockets());
    for (CoreId b = 0; b < 4; ++b) {
      EXPECT_EQ(t.distance(a, b), t.distance(b, a));
    }
  }
}

TEST(Topology, MakeTopologyHonoursTheConfig) {
  Config cfg;
  cfg.num_sockets = 2;
  const Topology t = make_topology(cfg, 8);
  EXPECT_EQ(t.num_sockets(), 2u);
  EXPECT_EQ(t.socket_of(3), 0u);
  EXPECT_EQ(t.socket_of(4), 1u);

  cfg.num_sockets = 0;  // auto-detect; must still be valid everywhere
  const Topology d = make_topology(cfg, 8);
  EXPECT_EQ(d.num_cores(), 8u);
}

// ------------------------------------------------------- TieredVictimOrder

TEST(TieredVictimOrder, SweepIsAPermutationWithNonDecreasingTiers) {
  const Topology topo = Topology::synthetic(8, 2, 2);
  util::Xoshiro256 rng(42);
  for (unsigned self = 0; self < 8; ++self) {
    TieredVictimOrder order(topo, self, 8);
    ASSERT_EQ(order.size(), 7u);
    for (int sweep = 0; sweep < 4; ++sweep) {
      std::set<unsigned> seen;
      int prev_tier = -1;
      for (std::size_t i = 0; i < order.size(); ++i) {
        const VictimPick pick = order.next(rng);
        ASSERT_NE(pick.victim, kNoVictim);
        ASSERT_NE(pick.victim, self);
        ASSERT_LT(pick.victim, 8u);
        EXPECT_EQ(pick.tier, topo.distance(self, pick.victim));
        EXPECT_GE(static_cast<int>(pick.tier), prev_tier)
            << "tier order regressed mid-sweep";
        prev_tier = static_cast<int>(pick.tier);
        seen.insert(pick.victim);
      }
      EXPECT_EQ(seen.size(), 7u) << "sweep skipped or repeated a victim";
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
  const Topology topo = Topology::uniform(16);
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
  const Topology topo = Topology::synthetic(8, 2, 2);
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
  const Topology topo = Topology::uniform(1);
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

// Model checks for the tiered victim sweep (core/victim_order.hpp).
//
// A sweep's only nondeterminism is its one start draw. Driving the
// templated Rng through the checker's choose_value() enumerates *every*
// start slot, so these scenarios certify — not sample — the properties
// both executors lean on:
//
//  * every sweep probes the victims in a near-first order, each tier in
//    circular id order from the start, and stops at its first hit;
//  * a failed sweep has probed every victim, whatever the start — no
//    victim can be starved of probes by an unlucky (or adversarial)
//    sequence of draws.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "check/check.hpp"
#include "core/topology.hpp"
#include "core/victim_order.hpp"

namespace dws {
namespace {

using check::Options;
using check::Result;
using check::Sim;

Options exhaustive() {
  Options o;
  o.mode = Options::Mode::kExhaustive;
  return o;
}

/// Rng whose draws are checker decisions: explore() branches on every
/// possible value. Counts its draws and keeps the last one.
struct ChooseRng {
  int draws = 0;
  unsigned last = 0;
  std::uint64_t next_below(std::uint64_t bound) {
    ++draws;
    last = bound <= 1 ? 0
                      : static_cast<unsigned>(check::current()->choose_value(
                            static_cast<int>(bound)));
    return last;
  }
};

/// The victim a sweep starting at `start` must probe first in `tier`:
/// the tier's first id at or after the start, wrapping around.
unsigned tier_leader(const Topology& topo, unsigned self, unsigned n,
                     DistanceTier tier, unsigned start) {
  for (unsigned off = 0; off < n; ++off) {
    const unsigned v = (start + off) % n;
    if (v != self && topo.distance(self, v) == tier) return v;
  }
  return kNoVictim;
}

/// The probes of one sweep by `self`; `hit(v)` says whether v has work.
template <typename Hit>
std::vector<VictimPick> run_sweep(const TieredVictimOrder& order,
                                  ChooseRng& rng, Hit hit, VictimPick& out) {
  std::vector<VictimPick> probed;
  out = order.sweep(rng, [&](VictimPick pick) {
    probed.push_back(pick);
    return hit(pick.victim);
  });
  return probed;
}

TEST(VictimOrderCheck, EverySweepIsANearFirstPermutation) {
  // 12 cores, 3 sockets in a chain: a thief on an end socket sees three
  // NEAR, four FAR and four VERYFAR victims; one on the middle socket
  // three NEAR and eight FAR. All 12 start draws are explored for each
  // thief, with every probe failing.
  const Topology topo = Topology::synthetic(12, 3);
  std::set<std::pair<unsigned, unsigned>> leaders;  // (self, first NEAR)
  for (unsigned self = 0; self < 12; ++self) {
    const TieredVictimOrder order(topo, self, 12);
    const Result r = check::explore(exhaustive(), [&](Sim& sim) {
      sim.spawn([&] {
        ChooseRng rng;
        VictimPick out;
        const std::vector<VictimPick> probed =
            run_sweep(order, rng, [](unsigned) { return false; }, out);
        check::expect(rng.draws == 1, "a sweep must draw exactly once");
        check::expect(out.victim == kNoVictim, "a failed sweep hit");
        check::expect(probed.size() == 11, "sweep skipped or repeated");
        std::set<unsigned> seen;
        int prev_tier = -1;
        unsigned descents = 0;  // per tier: a rotation descends at most once
        for (std::size_t i = 0; i < probed.size(); ++i) {
          const VictimPick& p = probed[i];
          check::expect(p.victim < 12 && p.victim != self,
                        "victim out of range");
          check::expect(p.tier == topo.distance(self, p.victim),
                        "reported tier disagrees with the topology");
          check::expect(static_cast<int>(p.tier) >= prev_tier,
                        "sweep visited a nearer tier after a farther one");
          if (static_cast<int>(p.tier) != prev_tier) {
            check::expect(
                p.victim == tier_leader(topo, self, 12, p.tier, rng.last),
                "tier does not start at the drawn start slot");
            descents = 0;
            if (p.tier == DistanceTier::kNear) leaders.insert({self, p.victim});
          } else if (p.victim < probed[i - 1].victim) {
            ++descents;
          }
          check::expect(descents <= 1, "tier not in circular id order");
          prev_tier = static_cast<int>(p.tier);
          seen.insert(p.victim);
        }
        check::expect(seen.size() == 11, "sweep skipped or repeated");
      });
    });
    EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
    EXPECT_FALSE(r.truncated);
    EXPECT_EQ(r.executions, 12) << "one execution per start draw";
  }
  // The start draw spreads the load: each thief's three NEAR victims all
  // lead their tier for some draw.
  EXPECT_EQ(leaders.size(), 36u);
}

TEST(VictimOrderCheck, ASweepStopsAtItsFirstHit) {
  // Which of the 5 victims have work is a checker choice too: all
  // 2^5 work patterns x 6 start draws for thief 0 on a 2-socket machine.
  const Topology topo = Topology::synthetic(6, 2);
  const TieredVictimOrder order(topo, /*self=*/0, 6);
  const Result r = check::explore(exhaustive(), [&](Sim& sim) {
    sim.spawn([&] {
      std::vector<bool> has_work(6, false);
      for (unsigned v = 1; v < 6; ++v) {
        has_work[v] = check::current()->choose_value(2) == 1;
      }
      ChooseRng rng;
      VictimPick out;
      const std::vector<VictimPick> probed = run_sweep(
          order, rng, [&](unsigned v) { return has_work[v]; }, out);
      std::set<unsigned> seen;
      for (const VictimPick& p : probed) seen.insert(p.victim);
      check::expect(seen.size() == probed.size(), "a victim probed twice");
      check::expect(!probed.empty(), "a sweep probed nobody");
      for (std::size_t i = 0; i + 1 < probed.size(); ++i) {
        check::expect(!has_work[probed[i].victim],
                      "the sweep probed on past a hit");
      }
      if (out.victim == kNoVictim) {
        check::expect(probed.size() == order.size(),
                      "a failed sweep left a victim unprobed");
        return;
      }
      check::expect(out.victim == probed.back().victim &&
                        out.tier == probed.back().tier &&
                        has_work[out.victim],
                    "the sweep did not return its hit");
      for (unsigned v = 1; v < 6; ++v) {
        check::expect(!has_work[v] || topo.distance(0, v) >= out.tier,
                      "the sweep passed over a nearer victim with work");
      }
    });
  });
  EXPECT_FALSE(r.failed) << r.message << "\n" << r.trace;
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.executions, 32 * 6);
}

}  // namespace
}  // namespace dws

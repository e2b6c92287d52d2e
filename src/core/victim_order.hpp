// Locality-aware victim ordering for Algorithm 1's steal attempts.
//
// distbdd-spin17's wstealer buckets the other workers into the four
// distance tiers of core/topology.hpp and steals near-first: all VERYNEAR
// victims are probed before any NEAR one, and so on. TieredVictimOrder
// packages that ordering as pure policy (no threads, no atomics — the
// same class drives the real runtime's workers and the simulator):
//
//  * victims are bucketed by distance(self, v) once, at construction;
//  * a *sweep* probes every victim exactly once, tiers in near-to-far
//    order, uniformly shuffled within each tier (so equally-near victims
//    share the load instead of core 0 being everyone's first target);
//  * next() hands out one victim per call and keeps a cursor, preserving
//    Algorithm 1's one-attempt-per-iteration accounting (the failed-steal
//    counter and T_SLEEP semantics are untouched);
//  * restart() rewinds to the nearest tier — called after a successful
//    steal, so every fresh hunger episode probes near victims first.
//
// Starvation-freedom: a sweep is a permutation of all victims, the cursor
// only rewinds on success (the thief is no longer hungry) or wrap-around,
// so a continuously failing thief probes every victim within n-1
// consecutive attempts regardless of the shuffles — no victim can be
// missed forever. tests/test_check_victims.cpp certifies this
// exhaustively over the shuffle nondeterminism.
#pragma once

#include <cstddef>
#include <vector>

#include "core/topology.hpp"
#include "core/types.hpp"

namespace dws {

/// Sentinel for "no victim exists" (single-worker programs).
inline constexpr unsigned kNoVictim = ~0u;

/// One victim pick: who to probe and how far away they are (the tier
/// indexes WorkerStats' per-tier steal counters).
struct VictimPick {
  unsigned victim = kNoVictim;
  DistanceTier tier = DistanceTier::kVeryFar;
};

class TieredVictimOrder {
 public:
  TieredVictimOrder() = default;

  /// Order the victims of worker `self` among `num_workers` workers
  /// (worker id == core id) by distance tier, nearest first.
  TieredVictimOrder(const Topology& topo, unsigned self,
                    unsigned num_workers) {
    order_.reserve(num_workers > 0 ? num_workers - 1 : 0);
    tier_of_.reserve(order_.capacity());
    for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
      const std::size_t begin = order_.size();
      for (unsigned v = 0; v < num_workers; ++v) {
        if (v == self) continue;
        if (static_cast<unsigned>(topo.distance(self, v)) != t) continue;
        order_.push_back(v);
        tier_of_.push_back(static_cast<DistanceTier>(t));
      }
      if (order_.size() > begin) {
        segments_.push_back({begin, order_.size()});
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return order_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

  /// The next victim of the current sweep. At each sweep start (first call,
  /// wrap-around, or after restart()) the within-tier order is reshuffled
  /// with `rng`; the tier order itself is fixed near-to-far.
  template <typename Rng>
  [[nodiscard]] VictimPick next(Rng& rng) {
    if (order_.empty()) return VictimPick{};
    if (cursor_ == 0) reshuffle(rng);
    const VictimPick pick{order_[cursor_], tier_of_[cursor_]};
    if (++cursor_ == order_.size()) cursor_ = 0;
    return pick;
  }

  /// Rewind to the nearest tier (the hunger episode ended: the next
  /// episode starts near-first again).
  void restart() noexcept { cursor_ = 0; }

 private:
  struct Segment {
    std::size_t begin, end;  // [begin, end) slice of order_ with one tier
  };

  template <typename Rng>
  void reshuffle(Rng& rng) {
    // Fisher-Yates within each tier segment; tiers never mix.
    for (const Segment& seg : segments_) {
      for (std::size_t i = seg.end - seg.begin; i > 1; --i) {
        std::swap(order_[seg.begin + i - 1],
                  order_[seg.begin + rng.next_below(i)]);
      }
    }
  }

  std::vector<unsigned> order_;        // victims, grouped by tier near->far
  std::vector<DistanceTier> tier_of_;  // tier_of_[i] = tier of order_[i]
  std::vector<Segment> segments_;      // non-empty tier slices of order_
  std::size_t cursor_ = 0;
};

}  // namespace dws

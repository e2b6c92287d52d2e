// Locality-aware victim ordering for Algorithm 1's steal attempts.
//
// distbdd-spin17's wstealer buckets the other workers into the four
// distance tiers of core/topology.hpp and steals near-first: all VERYNEAR
// victims are probed before any NEAR one, and so on. TieredVictimOrder
// packages that ordering as pure policy (no threads, no atomics) and is
// the one definition of a steal attempt in both executors:
//
//  * victims are bucketed by distance(self, v) once, at construction;
//  * sweep() is one steal attempt: it draws one start slot, then probes
//    every victim once, tiers near to far, each tier in circular id order
//    from that start (so equally-near victims share the load instead of
//    core 0 being everyone's first target), and stops at the first hit.
//    A failed steal is a failed sweep in the runtime and the simulator
//    alike, so T_SLEEP counts sweeps in both;
//  * next() hands out the same sweeps one victim per call.
//
// Starvation-freedom: a failed sweep has probed every victim, whatever
// the start. tests/test_check_victims.cpp certifies this exhaustively
// over all start draws.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/topology.hpp"
#include "core/types.hpp"

namespace dws {

/// Sentinel for "no victim exists" (single-worker programs).
inline constexpr unsigned kNoVictim = ~0u;

/// One victim pick: who to probe and how far away they are (the
/// simulator counts its steals per tier).
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
    for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
      const std::size_t begin = order_.size();
      for (unsigned v = 0; v < num_workers; ++v) {
        if (v == self) continue;
        if (static_cast<unsigned>(topo.distance(self, v)) != t) continue;
        order_.push_back(v);
      }
      if (order_.size() > begin) {
        segments_.push_back({begin, order_.size(), DistanceTier(t)});
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return order_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }

  /// One steal attempt: probe each victim once, near tiers first, until
  /// `probe(pick)` returns true. Returns that pick, or a kNoVictim pick
  /// when the whole sweep failed. Draws from `rng` exactly once, and not
  /// at all when there is no victim.
  template <typename Rng, typename Probe>
  VictimPick sweep(Rng& rng, Probe&& probe) const {
    if (order_.empty()) return VictimPick{};
    const unsigned start = draw(rng);
    for (std::size_t i = 0; i < order_.size(); ++i) {
      const VictimPick pick = pick_at(i, start);
      if (probe(pick)) return pick;
    }
    return VictimPick{};
  }

  /// The victims of consecutive sweeps, one per call.
  template <typename Rng>
  [[nodiscard]] VictimPick next(Rng& rng) {
    if (order_.empty()) return VictimPick{};
    if (cursor_ == 0) start_ = draw(rng);
    const VictimPick pick = pick_at(cursor_, start_);
    if (++cursor_ == order_.size()) cursor_ = 0;
    return pick;
  }

 private:
  struct Segment {
    std::size_t begin, end;  // [begin, end) slice of order_ with one tier
    DistanceTier tier;
  };

  /// A start slot in [0, num_workers): the victims plus self.
  template <typename Rng>
  unsigned draw(Rng& rng) const {
    return static_cast<unsigned>(rng.next_below(order_.size() + 1));
  }

  /// The i-th victim of the sweep from slot `start`: each tier segment
  /// rotated to begin at its first id >= start.
  [[nodiscard]] VictimPick pick_at(std::size_t i, unsigned start) const {
    const Segment* seg = segments_.data();
    for (; i >= seg->end - seg->begin; ++seg) i -= seg->end - seg->begin;
    const std::size_t len = seg->end - seg->begin;
    const unsigned* first = order_.data() + seg->begin;
    const auto pivot = static_cast<std::size_t>(
        std::lower_bound(first, first + len, start) - first);
    return {first[(pivot + i) % len], seg->tier};
  }

  std::vector<unsigned> order_;    // victims by tier near->far, ids ascending
  std::vector<Segment> segments_;  // non-empty tier slices of order_
  unsigned start_ = 0;             // next(): the current sweep's start
  std::size_t cursor_ = 0;         // next(): position in the current sweep
};

}  // namespace dws

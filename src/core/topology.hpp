// Socket/NUMA machine model: which cores are close to which.
//
// The paper's coordinator and thieves treat all cores as interchangeable,
// which is only true inside one socket. This type gives every layer that
// picks a core — victim selection (runtime + simulator), the coordinator's
// core-exchange, the simulator's migration costs — a shared notion of
// distance, expressed as the four tiers of distbdd-spin17's wstealer
// (VERYNEAR/NEAR/FAR/VERYFAR): same core, same socket, adjacent socket,
// distant socket. "On the Efficiency of Localized Work Stealing" supplies
// the theory that near-first stealing over such tiers preserves the
// work-stealing time bounds while cutting remote traffic.
//
// The model is synthetic and deterministic: sockets split the cores
// contiguously, as the simulator models them. The real runtime always
// builds the flat one-socket machine, where every distinct pair of cores
// is NEAR; the simulator's sockets (SimParams::num_sockets) are what make
// the remote tiers matter. The type is immutable after construction and
// cheap to copy.
#pragma once

#include <algorithm>

#include "core/types.hpp"

namespace dws {

/// Victim/core distance tiers, nearest first. The numeric values order
/// tiers (kVeryNear < kNear < ...) and index the per-tier counters.
enum class DistanceTier : int {
  kVeryNear = 0,  ///< the same core (distance(c, c); never a victim)
  kNear = 1,      ///< same socket — shares the LLC
  kFar = 2,       ///< adjacent socket — one interconnect hop
  kVeryFar = 3,   ///< distant socket — multi-hop interconnect
};

inline constexpr unsigned kNumDistanceTiers = 4;

[[nodiscard]] constexpr const char* to_string(DistanceTier t) noexcept {
  switch (t) {
    case DistanceTier::kVeryNear: return "VERYNEAR";
    case DistanceTier::kNear: return "NEAR";
    case DistanceTier::kFar: return "FAR";
    case DistanceTier::kVeryFar: return "VERYFAR";
  }
  return "?";
}

class Topology {
 public:
  /// Degenerate 1-core, 1-socket machine (safe default).
  Topology() = default;

  /// Deterministic synthetic machine: `num_sockets` sockets splitting the
  /// cores contiguously (socket = core / ceil(num_cores / num_sockets)),
  /// sockets arranged in a linear chain (socket i and i+1 are adjacent).
  /// num_sockets is clamped to [1, num_cores].
  [[nodiscard]] static Topology synthetic(unsigned num_cores,
                                          unsigned num_sockets) noexcept {
    Topology t;
    t.num_cores_ = num_cores == 0 ? 1 : num_cores;
    t.num_sockets_ = std::clamp(num_sockets, 1u, t.num_cores_);
    // Contiguous ceil-division split; the simulator's cache model reads
    // its sockets from here too.
    t.cores_per_socket_ = (t.num_cores_ + t.num_sockets_ - 1) / t.num_sockets_;
    return t;
  }

  [[nodiscard]] unsigned num_cores() const noexcept { return num_cores_; }
  [[nodiscard]] unsigned num_sockets() const noexcept { return num_sockets_; }
  [[nodiscard]] unsigned socket_of(CoreId c) const noexcept {
    return c / cores_per_socket_;
  }

  /// Distance tier between two cores: the same socket is NEAR, one hop
  /// along the chain FAR, more than one VERYFAR. Symmetric; distance(c, c)
  /// is kVeryNear (a core is nearest to itself; callers never self-steal,
  /// but the coordinator ranks a program's home anchor first through it).
  [[nodiscard]] DistanceTier distance(CoreId a, CoreId b) const noexcept {
    if (a == b) return DistanceTier::kVeryNear;
    const unsigned sa = socket_of(a);
    const unsigned sb = socket_of(b);
    const unsigned hops = sa > sb ? sa - sb : sb - sa;
    return hops == 0   ? DistanceTier::kNear
           : hops == 1 ? DistanceTier::kFar
                       : DistanceTier::kVeryFar;
  }

 private:
  unsigned num_cores_ = 1;
  unsigned num_sockets_ = 1;
  unsigned cores_per_socket_ = 1;
};

}  // namespace dws

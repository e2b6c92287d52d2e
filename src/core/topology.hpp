// Socket/NUMA machine model: which cores are close to which.
//
// The paper's coordinator and thieves treat all cores as interchangeable,
// which is only true inside one socket. This type gives every layer that
// picks a core — victim selection (runtime + simulator), the coordinator's
// core-exchange, the simulator's migration costs — a shared notion of
// distance, expressed as the four tiers of distbdd-spin17's wstealer
// (VERYNEAR/NEAR/FAR/VERYFAR): SMT sibling, same socket, adjacent socket,
// distant socket. "On the Efficiency of Localized Work Stealing" supplies
// the theory that near-first stealing over such tiers preserves the
// work-stealing time bounds while cutting remote traffic.
//
// Construction is either synthetic (deterministic: sockets split the cores
// contiguously, as the simulator models them) or auto-detected from
// sysfs, with the synthetic single-socket layout as the fallback so a
// build without /sys (containers, non-Linux) behaves identically
// everywhere. The type is immutable after construction and cheap to copy.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/types.hpp"

namespace dws {

/// Victim/core distance tiers, nearest first. The numeric values order
/// tiers (kVeryNear < kNear < ...) and index the per-tier counters.
enum class DistanceTier : int {
  kVeryNear = 0,  ///< same physical core (SMT sibling) — shares L1/L2
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
  Topology() : Topology(synthetic(1, 1)) {}

  /// Deterministic synthetic machine: `num_sockets` sockets splitting the
  /// cores contiguously (socket = core / ceil(num_cores / num_sockets)),
  /// sockets arranged in a linear chain (socket i and i+1 are adjacent),
  /// and optionally `smt_per_core` consecutive cores forming one physical
  /// core (SMT siblings). num_sockets and
  /// smt_per_core are clamped to [1, num_cores].
  [[nodiscard]] static Topology synthetic(unsigned num_cores,
                                          unsigned num_sockets,
                                          unsigned smt_per_core = 1);

  /// Single-socket, no-SMT machine: every distinct pair is kNear.
  [[nodiscard]] static Topology uniform(unsigned num_cores) {
    return synthetic(num_cores, 1);
  }

  /// Auto-detect the first `num_cores` logical CPUs from sysfs
  /// (physical_package_id + core_id per cpu, NUMA node distances for the
  /// remote tiers). Falls back to uniform(num_cores) when sysfs is absent
  /// or inconsistent, so the result is always valid and deterministic for
  /// a given machine.
  [[nodiscard]] static Topology detect(unsigned num_cores);

  [[nodiscard]] unsigned num_cores() const noexcept {
    return static_cast<unsigned>(socket_of_.size());
  }
  [[nodiscard]] unsigned num_sockets() const noexcept { return num_sockets_; }
  [[nodiscard]] unsigned socket_of(CoreId c) const noexcept {
    return socket_of_[c];
  }
  /// Physical-core (SMT-sibling group) id of a logical core.
  [[nodiscard]] unsigned group_of(CoreId c) const noexcept {
    return group_of_[c];
  }

  /// Distance tier between two cores. Symmetric; distance(c, c) is
  /// kVeryNear (a core is nearest to itself; callers never self-steal).
  [[nodiscard]] DistanceTier distance(CoreId a, CoreId b) const noexcept {
    if (group_of_[a] == group_of_[b]) return DistanceTier::kVeryNear;
    return static_cast<DistanceTier>(
        socket_tier_[socket_of_[a] * num_sockets_ + socket_of_[b]]);
  }

  /// True when every distinct pair of cores is equidistant (one socket,
  /// no SMT) — tiered and uniform victim selection then coincide.
  [[nodiscard]] bool flat() const noexcept { return flat_; }

 private:
  Topology(unsigned num_sockets, std::vector<std::uint8_t> socket_of,
           std::vector<std::uint32_t> group_of,
           std::vector<std::uint8_t> socket_tier);

  unsigned num_sockets_ = 1;
  bool flat_ = true;
  std::vector<std::uint8_t> socket_of_;   // [core] -> socket
  std::vector<std::uint32_t> group_of_;   // [core] -> physical-core group
  std::vector<std::uint8_t> socket_tier_; // [sa * S + sb] -> DistanceTier
};

/// Resolve the topology a Config asks for: num_sockets == 0 means sysfs
/// auto-detection; otherwise the deterministic synthetic machine.
[[nodiscard]] Topology make_topology(const Config& cfg, unsigned num_cores);

}  // namespace dws

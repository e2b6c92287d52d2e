// Shared vocabulary types for the DWS policy layer.
#pragma once

#include <cstdint>
#include <string>

namespace dws {

/// 1-based program identifier; 0 is reserved for "no program / free".
using ProgramId = std::uint32_t;
inline constexpr ProgramId kNoProgram = 0;

/// 0-based hardware (or simulated) core index.
using CoreId = std::uint32_t;

/// Scheduling modes evaluated in the paper (§4) plus classic work-stealing.
enum class SchedMode : int {
  /// Pure random work-stealing: thieves spin on failed steals, never yield
  /// or sleep. The single-program gold standard (§4.4 comparison point).
  kClassic = 0,
  /// Time-sharing + ABP yielding: a thief calls yield() after each failed
  /// steal so co-located threads can run (Arora/Blumofe/Plaxton; the
  /// behaviour of MIT Cilk and TBB the paper compares against).
  kAbp = 1,
  /// Space-sharing + equipartition: each of the m programs is statically
  /// pinned to a disjoint k/m-core group; inside the group workers behave
  /// like ABP.
  kEp = 2,
  /// The paper's contribution: demand-aware work-stealing. Workers sleep
  /// after T_SLEEP consecutive failed steals; a per-program coordinator
  /// wakes workers onto free/reclaimable cores (§3).
  kDws = 3,
  /// Ablation from §4.2: DWS sleep/wake behaviour but no coordinator-driven
  /// core exchange — cores are not kept disjoint across programs.
  kDwsNc = 4,
};

/// Every mode, in enum order: the one list that mode sweeps, usage text
/// and parse_mode iterate.
inline constexpr SchedMode kAllModes[] = {
    SchedMode::kClassic, SchedMode::kAbp, SchedMode::kEp, SchedMode::kDws,
    SchedMode::kDwsNc};

[[nodiscard]] constexpr const char* to_string(SchedMode m) noexcept {
  switch (m) {
    case SchedMode::kClassic: return "CLASSIC";
    case SchedMode::kAbp: return "ABP";
    case SchedMode::kEp: return "EP";
    case SchedMode::kDws: return "DWS";
    case SchedMode::kDwsNc: return "DWS-NC";
  }
  return "?";
}

/// Parse a mode name (as produced by to_string, case-sensitive).
/// Returns true on success.
[[nodiscard]] inline bool parse_mode(const std::string& s, SchedMode& out) {
  for (SchedMode m : kAllModes) {
    if (s == to_string(m)) {
      out = m;
      return true;
    }
  }
  return false;
}

/// "CLASSIC|ABP|EP|DWS|DWS-NC": every mode name, for usage text.
[[nodiscard]] inline std::string mode_names() {
  std::string out;
  for (SchedMode m : kAllModes) {
    if (!out.empty()) out += '|';
    out += to_string(m);
  }
  return out;
}

/// True for modes in which workers participate in the sleep/wake protocol.
[[nodiscard]] constexpr bool mode_sleeps(SchedMode m) noexcept {
  return m == SchedMode::kDws || m == SchedMode::kDwsNc;
}

/// True for modes that maintain the disjoint-core invariant via the core
/// allocation table (initial equipartition + coordinator exchange).
[[nodiscard]] constexpr bool mode_space_shares(SchedMode m) noexcept {
  return m == SchedMode::kEp || m == SchedMode::kDws;
}

}  // namespace dws

// The core-allocation-table CAS protocol (§3.1/§3.3), factored out of
// CoreTable as a header-only template so the exact production transitions
// can be instantiated over the model checker's instrumented atomics
// (CoreOps<check::CheckAtomicsPolicy>) as well as over std::atomic
// (CoreOps<StdAtomicsPolicy>, what core_table.cpp compiles). The raw-memory
// CoreTable in core_table.{hpp,cpp} is a thin layout wrapper around these
// functions; keeping the protocol here means the model-check suite and the
// shared-memory table cannot drift apart.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/atomics_policy.hpp"
#include "core/types.hpp"
#include "util/layout.hpp"

namespace dws {

/// Slot layout: the CAS word alone on its cache line, so a claim/release
/// on core c invalidates nobody else's slot. Costs 64 B/core of shared
/// memory (16 KiB at 256 cores) — noise next to the coherence traffic a
/// packed array of bare words (16 slots per line) generates under
/// multi-programmed churn (see BENCH_false_sharing.json).
template <typename Policy>
struct alignas(layout::kCacheLineBytes) StridedCoreSlot {
  DWS_SHARED typename Policy::template atomic<std::uint32_t> user{kNoProgram};
};

/// Static home owner of `core` under the initial equipartition: with k
/// cores and m declared programs, program i (1-based) homes the contiguous
/// block {c : c*m/k == i-1}. Shared by every table implementation and the
/// reference models in the tests.
[[nodiscard]] constexpr ProgramId core_home_of(CoreId core, unsigned num_cores,
                                               unsigned num_programs) noexcept {
  return static_cast<ProgramId>(static_cast<std::uint64_t>(core) *
                                num_programs / num_cores) +
         1;
}

/// The CAS protocol, parameterized over the atomics policy (std vs
/// model-checker instrumented). Every transition goes through
/// slots[core].user.
template <typename Policy = StdAtomicsPolicy>
struct CoreOps {
  using Slot = StridedCoreSlot<Policy>;

  /// Current active program on `core`, or kNoProgram if free.
  [[nodiscard]] static ProgramId user_of(const Slot* slots, CoreId core) {
    return slots[core].user.load(std::memory_order_acquire);
  }

  /// CAS free -> pid. True iff this call performed the transition.
  static bool try_claim(Slot* slots, CoreId core, ProgramId pid) {
    std::uint32_t expected = kNoProgram;
    return slots[core].user.compare_exchange_strong(
        expected, pid, std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// Take a *home* core of `pid` back from whichever program borrowed it
  /// (§3.3 cases 2–3). Fails if the core is free, already ours, or not a
  /// home core of `pid`.
  static bool try_reclaim(Slot* slots, unsigned num_cores,
                          unsigned num_programs, CoreId core, ProgramId pid) {
    if (core_home_of(core, num_cores, num_programs) != pid) return false;
    std::uint32_t current = slots[core].user.load(std::memory_order_acquire);
    if (current == kNoProgram || current == pid) return false;
    return slots[core].user.compare_exchange_strong(
        current, pid, std::memory_order_acq_rel, std::memory_order_acquire);
  }

  /// CAS pid -> free. True iff `pid` was the user.
  static bool release(Slot* slots, CoreId core, ProgramId pid) {
    std::uint32_t expected = pid;
    return slots[core].user.compare_exchange_strong(
        expected, kNoProgram, std::memory_order_acq_rel,
        std::memory_order_acquire);
  }

  /// N_f: cores currently free.
  [[nodiscard]] static unsigned count_free(const Slot* slots,
                                           unsigned num_cores) {
    unsigned n = 0;
    for (CoreId c = 0; c < num_cores; ++c) {
      if (user_of(slots, c) == kNoProgram) ++n;
    }
    return n;
  }

  /// N_r: home cores of `pid` currently used by *other* programs.
  [[nodiscard]] static unsigned count_borrowed_from(const Slot* slots,
                                                    unsigned num_cores,
                                                    unsigned num_programs,
                                                    ProgramId pid) {
    unsigned n = 0;
    for (CoreId c = 0; c < num_cores; ++c) {
      const ProgramId u = user_of(slots, c);
      if (core_home_of(c, num_cores, num_programs) == pid &&
          u != kNoProgram && u != pid) {
        ++n;
      }
    }
    return n;
  }

  /// Cores on which `pid` is the active user.
  [[nodiscard]] static unsigned count_active(const Slot* slots,
                                             unsigned num_cores,
                                             ProgramId pid) {
    unsigned n = 0;
    for (CoreId c = 0; c < num_cores; ++c) {
      if (user_of(slots, c) == pid) ++n;
    }
    return n;
  }
};

}  // namespace dws

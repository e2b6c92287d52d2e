// A worker's sleep state (§3.2 sleep, §3.3 wake) as one atomic word: the
// state in the low two bits, a shutdown token above them. It is the only
// thing an idle worker blocks on, in every mode, and the only shutdown
// signal. Owners block on the word through the atomics policy's wait and
// wake (core/atomics_policy.hpp), so tests/test_check_sleep.cpp
// model-checks this template; nothing here is noexcept, as the checker
// unwinds from atomic operations.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>

#include "core/atomics_policy.hpp"
#include "util/layout.hpp"

namespace dws::rt {

enum class SleepState : std::uint32_t {
  kActive,    ///< running Algorithm 1, or woken and about to
  kSleeping,  ///< blocked or about to block; DWS: released its core
  kParked,    ///< EP worker on a core its program lacks; never woken
};

template <typename Policy = StdAtomicsPolicy>
class SleepWord {
 public:
  /// seq_cst: Scheduler::enqueue's scan is its half of the handshake.
  [[nodiscard]] SleepState state() const { return of(word_.load(kSc)); }
  /// True once shutdown() ran: the owner's loop ends.
  [[nodiscard]] bool shut_down() const {
    return word_.load(std::memory_order_acquire) > kMask;
  }

  /// The owner's half of the Dekker handshake with a submitter that bumps
  /// `count` and then reads the state (state() or wake()): publish
  /// Sleeping, then re-read `count`. True if it is non-zero; `take_back`
  /// then makes the owner Active again (a wake that landed in the window
  /// is spent here).
  template <typename Count>
  bool publish_sleeping(const Count& count, bool take_back) {
    enter(SleepState::kSleeping);
    if (count.load(kSc) == 0) return false;
    if (take_back) (void)leave_sleeping();
    return true;
  }
  /// Block while Sleeping or Parked: until a wake() or shutdown.
  void block() {
    auto w = word_.load(std::memory_order_acquire);
    for (; of(w) != SleepState::kActive && w <= kMask;
         w = word_.load(std::memory_order_acquire)) {
      Policy::wait(word_, w);
    }
  }
  /// EP: stay Parked until shutdown.
  void park() {
    enter(SleepState::kParked);
    block();
  }
  /// CAS Sleeping -> Active, then wake. True only if it moved a sleeper,
  /// so a woken worker counts as Active at once (the simulator's kWaking).
  bool wake() {
    if (!leave_sleeping()) return false;
    Policy::wake(word_);
    return true;
  }
  /// Bump the token: blocked owners return, and later blocks return at once.
  void shutdown() {
    word_.fetch_add(kMask + 1, std::memory_order_acq_rel);
    Policy::wake(word_);
  }

 private:
  static constexpr std::uint32_t kMask = 3;
  static constexpr auto kSc = std::memory_order_seq_cst;
  static SleepState of(std::uint32_t w) {
    return static_cast<SleepState>(w & kMask);
  }

  // Only the owner leaves Active, by adding the new state: an RMW, so a
  // concurrent token bump is never lost.
  void enter(SleepState s) {
    [[maybe_unused]] const std::uint32_t old =
        word_.fetch_add(static_cast<std::uint32_t>(s), kSc);
    assert(of(old) == SleepState::kActive);
  }
  // seq_cst first read: in wake() it is the submitter's read of the state
  // after its bump, the other half of publish_sleeping's handshake.
  bool leave_sleeping() {
    std::uint32_t w = word_.load(kSc);
    while (of(w) == SleepState::kSleeping) {
      if (word_.compare_exchange_weak(w, w & ~kMask, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  DWS_SHARED typename Policy::template atomic<std::uint32_t> word_{0};
};

}  // namespace dws::rt

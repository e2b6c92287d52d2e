// Atomics policy: the single template knob through which the lock-free
// structures (ChaseLevDeque, CoreOps) and the runtime's wait words
// (SleepWord, JoinWord, SignalWord) name their atomic primitives.
//
// Production code instantiates with StdAtomicsPolicy (the default
// everywhere) and compiles to plain std::atomic / std::atomic_thread_fence
// with zero overhead. The model-checking harness in src/check substitutes
// dws::check::CheckAtomicsPolicy, whose atomics route every operation
// through a controlled scheduler that explores thread interleavings and
// weak-memory read choices (see docs/CHECKING.md).
//
// The policy's wait primitive is the runtime's only way to block: `wait`
// and `wait_until` sleep while a 32-bit word holds an expected value,
// `wake` releases every thread asleep on the word. They are a raw futex
// here, the only one in the tree (scripts/lint.sh keeps it so). Nothing
// waits or notifies through std::atomic::wait / notify: libstdc++'s
// notify skips the futex call unless its own waiter count is non-zero, so
// a raw-futex waiter woken by a std notify would sleep on. A wait
// may return early and without a wake, so every caller loops on its
// predicate; a wait carries no memory order, so callers re-load the word
// to synchronize. `wake` reads nothing at its address: a waker may pass
// the address of a word whose owner has already been destroyed.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdint>
#include <ctime>

namespace dws {

struct StdAtomicsPolicy {
  template <typename T>
  using atomic = std::atomic<T>;
  using Clock = std::chrono::steady_clock;

  static void fence(std::memory_order mo) noexcept {
    std::atomic_thread_fence(mo);
  }

  /// Sleep while `a` holds `expected`, until a wake (or a spurious return).
  static void wait(const atomic<std::uint32_t>& a,
                   std::uint32_t expected) noexcept {
    futex(&a, FUTEX_WAIT_PRIVATE, expected, nullptr, 0);
  }

  /// As wait, and return by `deadline` at the latest (CLOCK_MONOTONIC,
  /// which is steady_clock's epoch on Linux).
  static void wait_until(const atomic<std::uint32_t>& a,
                         std::uint32_t expected,
                         Clock::time_point deadline) noexcept {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        deadline.time_since_epoch())
                        .count();
    const timespec abs{.tv_sec = static_cast<time_t>(ns / 1'000'000'000),
                       .tv_nsec = static_cast<long>(ns % 1'000'000'000)};
    futex(&a, FUTEX_WAIT_BITSET_PRIVATE, expected, &abs,
          FUTEX_BITSET_MATCH_ANY);
  }

  /// Release every thread asleep on `a`.
  static void wake(atomic<std::uint32_t>& a) noexcept {
    futex(&a, FUTEX_WAKE_PRIVATE, INT_MAX, nullptr, 0);
  }

 private:
  static_assert(sizeof(atomic<std::uint32_t>) == sizeof(std::uint32_t));

  static void futex(const void* addr, int op, std::uint32_t val,
                    const timespec* timeout, std::uint32_t val3) noexcept {
    (void)syscall(SYS_futex, addr, op, val, timeout, nullptr, val3);
  }
};

}  // namespace dws

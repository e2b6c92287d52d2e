// Umbrella header for the dws::check model-checking harness, plus the
// atomics policies that plug the instrumented primitives into the
// policy-templated production structures (ChaseLevDeque, CoreOps).
//
//   #include "check/check.hpp"
//   using CheckedDeque = dws::rt::ChaseLevDeque<int, dws::check::CheckAtomicsPolicy>;
//   auto r = dws::check::explore(opts, [](dws::check::Sim& sim) { ... });
//
// See docs/CHECKING.md for the model, how to write a check, and how to
// replay a failing interleaving.
#pragma once

#include <chrono>
#include <cstdint>

#include "check/atomic.hpp"
#include "check/scheduler.hpp"
#include "check/vector_clock.hpp"

namespace dws::check {

/// Atomics policy routing every operation through the model checker.
/// Its wait primitive models a futex: `wait` blocks while the newest
/// store equals `expected`, with no memory order of its own; `wait_until`
/// may also time out at any scheduling point, whatever its deadline says,
/// except that a deadline of time_point::max() never comes, so that wait
/// is untimed; `wake` re-enables every waiter on the word.
struct CheckAtomicsPolicy {
  template <typename T>
  using atomic = check::atomic<T>;
  using Clock = std::chrono::steady_clock;

  static void fence(std::memory_order mo) { check::fence(mo); }

  static void wait(const atomic<std::uint32_t>& a, std::uint32_t expected) {
    a.wait(expected, std::memory_order_relaxed);
  }
  static void wait_until(const atomic<std::uint32_t>& a,
                         std::uint32_t expected, Clock::time_point deadline) {
    if (deadline == Clock::time_point::max()) {
      a.wait(expected, std::memory_order_relaxed);
    } else {
      a.wait_timed(expected, std::memory_order_relaxed);
    }
  }
  static void wake(atomic<std::uint32_t>& a) { a.notify_all(); }
};

/// Fault-injection policy adapter: downgrades every seq_cst fence to
/// acq_rel (erasing the store-load ordering the Chase-Lev take/steal
/// protocol depends on) while leaving all other orders intact. Used to
/// prove the checker actually catches the class of bug it exists for —
/// see ChaseLevDequeCheck.WeakenedFenceIsCaught.
template <typename Base = CheckAtomicsPolicy>
struct WeakenSeqCstFences {
  template <typename T>
  using atomic = typename Base::template atomic<T>;

  static void fence(std::memory_order mo) {
    Base::fence(mo == std::memory_order_seq_cst ? std::memory_order_acq_rel
                                                : mo);
  }
};

/// Fault-injection policy adapter: downgrades every release fence to
/// relaxed, erasing the publication edge ChaseLevDeque::push relies on
/// (payload writes -> bottom_ store). With it, a thief may legitimately
/// read a *stale* value out of a deque slot or a recycled pool slot —
/// exactly the bug class the task-recycle scenarios certify against. See
/// TaskPoolCheck.WeakenedPublishFenceIsCaught.
template <typename Base = CheckAtomicsPolicy>
struct WeakenReleaseFences {
  template <typename T>
  using atomic = typename Base::template atomic<T>;

  static void fence(std::memory_order mo) {
    Base::fence(mo == std::memory_order_release ? std::memory_order_relaxed
                                                : mo);
  }
};

}  // namespace dws::check

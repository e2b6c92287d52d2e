// Instrumented atomics for the model checker: drop-in replacements for
// std::atomic<T>, std::atomic_thread_fence, and (for race detection on
// plain shared data) a checked non-atomic cell check::var<T>.
//
// Memory model (operational, relacy-style — see docs/CHECKING.md):
//
//  - Every atomic location keeps the full *history* of stores, each stamped
//    with the storing thread's vector clock and carrying a release clock.
//    Modification order is history order (stores execute atomically in the
//    serialized interleaving).
//  - A load may read ANY store not invalidated by coherence or
//    happens-before: the candidate window starts at the newest store the
//    loading thread has already observed (per-location last_seen) or that
//    happens-before the load, whichever is newer. Which candidate is
//    returned is an explored decision — this is how relaxed/acquire code
//    legitimately observes stale values.
//  - acquire loads join the release clock of the store they read;
//    release stores carry the storing thread's clock; relaxed stores after
//    a release fence carry the fence-time clock; acquire fences join the
//    release clocks of all previously read stores.
//  - seq_cst accesses additionally synchronize through one global SC
//    clock. Fences join it both ways; stores and RMWs only publish into
//    it; loads (a CAS's failure read and wait's compare too) only acquire
//    from it. So an SC load sees every SC store, RMW and fence before it
//    in the interleaving, but neither an SC load nor an SC store or RMW
//    is a fence: an SC RMW does not make another thread's earlier SC
//    store visible to its thread's later relaxed loads. This is still
//    slightly *stronger* than C++'s S order (an SC store publishes its
//    thread's whole clock, where C++ orders only SC accesses), so the
//    checker explores a sound subset of allowed behaviours: it can miss
//    exotic weak executions but never reports a failure a correct C++
//    program could not exhibit.
//  - RMWs read the newest store in modification order (as C++ requires)
//    and continue its release sequence.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "check/scheduler.hpp"
#include "check/vector_clock.hpp"

namespace dws::check {

namespace detail {

[[nodiscard]] constexpr bool mo_acquire(std::memory_order mo) noexcept {
  return mo == std::memory_order_acquire || mo == std::memory_order_consume ||
         mo == std::memory_order_acq_rel || mo == std::memory_order_seq_cst;
}

[[nodiscard]] constexpr bool mo_release(std::memory_order mo) noexcept {
  return mo == std::memory_order_release || mo == std::memory_order_acq_rel ||
         mo == std::memory_order_seq_cst;
}

template <typename T>
[[nodiscard]] long long to_ll(T v) noexcept {
  if constexpr (std::is_pointer_v<T>) {
    return static_cast<long long>(reinterpret_cast<std::intptr_t>(v));
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    return static_cast<long long>(v);
  } else {
    return 0;
  }
}

}  // namespace detail

template <typename T>
class atomic {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  static constexpr bool is_always_lock_free = true;

  atomic() : atomic(T{}) {}

  atomic(T v) {  // NOLINT(google-explicit-constructor): mirrors std::atomic
    Scheduler* s = current();
    id_ = s != nullptr ? s->next_object_id() : 0;
    StoreRec r;
    r.value = v;
    r.tid = s != nullptr ? s->current_thread() : 0;
    if (s != nullptr) {
      auto& ts = s->state(r.tid);
      ts.clock.c[r.tid]++;
      r.stamp = ts.clock;
      // Initialization is published by whatever edge makes the object
      // reachable (in explore(): the spawn edge), so carrying the creator's
      // clock as a release is sound and avoids uninitialized-read noise.
      r.release = ts.clock;
    }
    hist_.push_back(r);
  }

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    Scheduler* s = current();
    if (s == nullptr) return hist_.back().value;
    auto guard = s->op_guard();
    if (s->aborting()) return hist_.back().value;
    s->schedule_point();
    const int tid = s->current_thread();
    auto& ts = s->state(tid);
    if (mo == std::memory_order_seq_cst) s->sc_acquire(ts.clock);
    const int idx = pick_readable(s, ts, tid);
    const StoreRec& r = hist_[static_cast<std::size_t>(idx)];
    if (idx > last_seen_[tid]) last_seen_[tid] = idx;
    if (detail::mo_acquire(mo)) ts.clock.join(r.release);
    ts.acq_pending.join(r.release);
    if (s->trace_enabled()) {
      s->note("atomic", id_, "load", detail::to_ll(r.value));
    }
    return r.value;
  }

  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    Scheduler* s = current();
    if (s == nullptr) {
      hist_.back().value = v;
      return;
    }
    auto guard = s->op_guard();
    if (s->aborting()) {
      hist_.push_back({v, {}, {}, s->current_thread()});
      return;
    }
    s->schedule_point();
    const int tid = s->current_thread();
    auto& ts = s->state(tid);
    ts.clock.c[tid]++;
    if (mo == std::memory_order_seq_cst) s->sc_release(ts.clock);
    StoreRec r;
    r.value = v;
    r.tid = tid;
    r.stamp = ts.clock;
    if (detail::mo_release(mo)) {
      r.release = ts.clock;
    } else if (ts.has_rel_fence) {
      r.release = ts.rel_fence;
    }
    hist_.push_back(std::move(r));
    last_seen_[tid] = static_cast<int>(hist_.size()) - 1;
    if (s->trace_enabled()) s->note("atomic", id_, "store", detail::to_ll(v));
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order success,
                               std::memory_order failure) {
    Scheduler* s = current();
    if (s == nullptr || s->aborting()) {
      auto guard = s != nullptr ? s->op_guard()
                                : std::unique_lock<std::mutex>();
      if (hist_.back().value == expected) {
        hist_.push_back({desired, {}, {}, s != nullptr ? s->current_thread() : 0});
        return true;
      }
      expected = hist_.back().value;
      return false;
    }
    s->schedule_point();
    const int tid = s->current_thread();
    auto& ts = s->state(tid);
    // C++ requires the RMW (and its failure load) to observe the newest
    // value in modification order.
    if (!(hist_.back().value == expected)) {
      const StoreRec& last = read_newest(s, ts, tid, failure);
      expected = last.value;
      if (s->trace_enabled()) {
        s->note("atomic", id_, "cas-fail", detail::to_ll(last.value));
      }
      return false;
    }
    rmw_commit(s, ts, tid, desired, success);
    if (s->trace_enabled()) {
      s->note("atomic", id_, "cas", detail::to_ll(desired));
    }
    return true;
  }

  bool compare_exchange_strong(T& expected, T desired,
                               std::memory_order mo = std::memory_order_seq_cst) {
    return compare_exchange_strong(expected, desired, mo, mo);
  }

  bool compare_exchange_weak(T& expected, T desired, std::memory_order success,
                             std::memory_order failure) {
    // The checker has no spurious failures; weak == strong here.
    return compare_exchange_strong(expected, desired, success, failure);
  }

  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    Scheduler* s = current();
    if (s == nullptr || s->aborting()) {
      auto guard = s != nullptr ? s->op_guard()
                                : std::unique_lock<std::mutex>();
      const T old = hist_.back().value;
      hist_.push_back({v, {}, {}, s != nullptr ? s->current_thread() : 0});
      return old;
    }
    s->schedule_point();
    const int tid = s->current_thread();
    auto& ts = s->state(tid);
    const T old = rmw_commit(s, ts, tid, v, mo);
    if (s->trace_enabled()) s->note("atomic", id_, "exchange", detail::to_ll(v));
    return old;
  }

  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_add(T arg, std::memory_order mo = std::memory_order_seq_cst) {
    return fetch_op(mo, "fetch_add",
                    [arg](T v) { return static_cast<T>(v + arg); });
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_sub(T arg, std::memory_order mo = std::memory_order_seq_cst) {
    return fetch_op(mo, "fetch_sub",
                    [arg](T v) { return static_cast<T>(v - arg); });
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_or(T arg, std::memory_order mo = std::memory_order_seq_cst) {
    return fetch_op(mo, "fetch_or",
                    [arg](T v) { return static_cast<T>(v | arg); });
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_and(T arg, std::memory_order mo = std::memory_order_seq_cst) {
    return fetch_op(mo, "fetch_and",
                    [arg](T v) { return static_cast<T>(v & arg); });
  }
  template <typename U = T,
            typename = std::enable_if_t<std::is_integral_v<U>>>
  T fetch_xor(T arg, std::memory_order mo = std::memory_order_seq_cst) {
    return fetch_op(mo, "fetch_xor",
                    [arg](T v) { return static_cast<T>(v ^ arg); });
  }

  /// Blocks the model thread while the value equals `old`; a blocked thread
  /// is not runnable until a notify on this object re-enables it. Compares
  /// the newest store, as a futex does. Outside explore() it returns.
  void wait(T old, std::memory_order mo = std::memory_order_seq_cst) const {
    park(old, mo, false);
  }

  /// As wait, but a timed one: it may also return at any scheduling point
  /// without a notify (a timeout), and never ends the execution blocked.
  void wait_timed(T old,
                  std::memory_order mo = std::memory_order_seq_cst) const {
    park(old, mo, true);
  }

  /// Fault injection: block until a notify without comparing the value,
  /// as a futex wait that skipped its compare would. A notify that came
  /// before the block is then lost, which is what the compare prevents.
  void wait_blind() const {
    Scheduler* s = current();
    if (s == nullptr || s->quiescent()) return;
    s->schedule_point();
    if (s->aborting()) return;
    (void)s->block_on(id_);
  }

  /// Re-enable one blocked waiter (the checker explores which) or all.
  void notify_one() { notify(false); }
  void notify_all() { notify(true); }

 private:
  struct StoreRec {
    T value{};
    VectorClock release;  // what an acquire reader synchronizes with
    VectorClock stamp;    // the storing thread's clock at the store
    int tid = 0;
  };

  /// Index of the store this load will read: the window floor is the newest
  /// of (a) what this thread already observed here and (b) the newest store
  /// that happens-before the load; above the floor the choice is explored.
  int pick_readable(Scheduler* s, detail::ThreadState& ts, int tid) const {
    int floor = last_seen_[tid];
    for (int i = static_cast<int>(hist_.size()) - 1; i > floor; --i) {
      const StoreRec& r = hist_[static_cast<std::size_t>(i)];
      if (r.stamp.c[r.tid] <= ts.clock.c[r.tid]) {
        floor = i;
        break;
      }
    }
    const int n = static_cast<int>(hist_.size()) - floor;
    return floor + s->choose_value(n);
  }

  /// A read of the newest store in modification order (a CAS's failure
  /// load, a wait's compare), with `mo`'s synchronization.
  const StoreRec& read_newest(Scheduler* s, detail::ThreadState& ts, int tid,
                              std::memory_order mo) const {
    const StoreRec& last = hist_.back();
    if (mo == std::memory_order_seq_cst) s->sc_acquire(ts.clock);
    if (detail::mo_acquire(mo)) ts.clock.join(last.release);
    ts.acq_pending.join(last.release);
    last_seen_[tid] = static_cast<int>(hist_.size()) - 1;
    return last;
  }

  /// Successful-RMW bookkeeping: reads the newest store, appends the new
  /// one continuing the release sequence. Returns the value read.
  T rmw_commit(Scheduler* s, detail::ThreadState& ts, int tid, T desired,
               std::memory_order mo) {
    const StoreRec last = hist_.back();  // copy: push_back invalidates refs
    ts.clock.c[tid]++;
    if (mo == std::memory_order_seq_cst) s->sc_release(ts.clock);
    if (detail::mo_acquire(mo)) ts.clock.join(last.release);
    ts.acq_pending.join(last.release);
    StoreRec r;
    r.value = desired;
    r.tid = tid;
    r.release = last.release;  // release-sequence continuation
    if (detail::mo_release(mo)) {
      r.release.join(ts.clock);
    } else if (ts.has_rel_fence) {
      r.release.join(ts.rel_fence);
    }
    r.stamp = ts.clock;
    hist_.push_back(std::move(r));
    last_seen_[tid] = static_cast<int>(hist_.size()) - 1;
    return last.value;
  }

  template <typename Op>
  T fetch_op(std::memory_order mo, const char* name, Op op) {
    Scheduler* s = current();
    if (s == nullptr || s->aborting()) {
      auto guard = s != nullptr ? s->op_guard()
                                : std::unique_lock<std::mutex>();
      const T old = hist_.back().value;
      hist_.push_back(
          {op(old), {}, {}, s != nullptr ? s->current_thread() : 0});
      return old;
    }
    s->schedule_point();
    const int tid = s->current_thread();
    auto& ts = s->state(tid);
    const T old = hist_.back().value;
    rmw_commit(s, ts, tid, op(old), mo);
    if (s->trace_enabled()) s->note("atomic", id_, name, detail::to_ll(old));
    return old;
  }

  void park(T old, std::memory_order mo, bool timed) const {
    Scheduler* s = current();
    if (s == nullptr || s->quiescent()) return;
    for (;;) {
      s->schedule_point();
      if (s->aborting()) return;
      const int tid = s->current_thread();
      const StoreRec& last = read_newest(s, s->state(tid), tid, mo);
      if (!(last.value == old)) return;
      if (s->trace_enabled()) {
        s->note("atomic", id_, timed ? "wait_timed" : "wait",
                detail::to_ll(old));
      }
      if (s->block_on(id_, timed)) return;  // timed out
    }
  }

  void notify(bool all) {
    Scheduler* s = current();
    if (s == nullptr || s->quiescent()) return;
    s->schedule_point();
    s->notify(id_, all);
  }

  mutable std::vector<StoreRec> hist_;
  mutable std::array<int, kMaxThreads + 1> last_seen_{};
  int id_ = 0;
};

/// Fence replacement; outside explore() falls through to the real fence.
inline void fence(std::memory_order mo) {
  Scheduler* s = current();
  if (s == nullptr) {
    std::atomic_thread_fence(mo);
    return;
  }
  auto guard = s->op_guard();
  if (s->aborting()) return;
  s->schedule_point();
  auto& ts = s->state(s->current_thread());
  if (detail::mo_acquire(mo)) ts.clock.join(ts.acq_pending);
  if (mo == std::memory_order_seq_cst) s->sc_sync(ts.clock);
  if (detail::mo_release(mo)) {
    ts.has_rel_fence = true;
    ts.rel_fence = ts.clock;
  }
  if (s->trace_enabled()) s->note("fence", 0, "fence", static_cast<int>(mo));
}

/// Checked NON-atomic shared cell: reads/writes participate in the
/// interleaving exploration and any pair of accesses not ordered by
/// happens-before (with at least one write) fails the execution as a data
/// race. Use for plain shared data the code under test publishes through
/// atomics.
template <typename T>
class var {
 public:
  var() : var(T{}) {}

  explicit var(T v) : v_(v) {
    Scheduler* s = current();
    id_ = s != nullptr ? s->next_object_id() : 0;
    if (s != nullptr) {
      const int tid = s->current_thread();
      auto& ts = s->state(tid);
      ts.clock.c[tid]++;
      write_stamp_ = ts.clock;
      writer_ = tid;
    }
  }

  var(const var&) = delete;
  var& operator=(const var&) = delete;

  T read() const {
    Scheduler* s = current();
    if (s == nullptr) return v_;
    auto guard = s->op_guard();
    if (s->aborting()) return v_;
    s->schedule_point();
    const int tid = s->current_thread();
    auto& ts = s->state(tid);
    if (write_stamp_.c[writer_] > ts.clock.c[writer_]) {
      s->fail("data race: read of var#" + std::to_string(id_) +
              " is concurrent with a write by T" + std::to_string(writer_));
    }
    if (ts.clock.c[tid] > read_epochs_[tid]) read_epochs_[tid] = ts.clock.c[tid];
    if (s->trace_enabled()) s->note("var", id_, "read", detail::to_ll(v_));
    return v_;
  }

  void write(T v) {
    Scheduler* s = current();
    if (s == nullptr) {
      v_ = v;
      return;
    }
    auto guard = s->op_guard();
    if (s->aborting()) {
      v_ = v;
      return;
    }
    s->schedule_point();
    const int tid = s->current_thread();
    auto& ts = s->state(tid);
    if (write_stamp_.c[writer_] > ts.clock.c[writer_]) {
      s->fail("data race: write of var#" + std::to_string(id_) +
              " is concurrent with a write by T" + std::to_string(writer_));
    }
    for (int i = 0; i <= kMaxThreads; ++i) {
      if (i != tid && read_epochs_[i] > ts.clock.c[i]) {
        s->fail("data race: write of var#" + std::to_string(id_) +
                " is concurrent with a read by T" + std::to_string(i));
      }
    }
    ts.clock.c[tid]++;
    v_ = v;
    write_stamp_ = ts.clock;
    writer_ = tid;
    if (s->trace_enabled()) s->note("var", id_, "write", detail::to_ll(v));
  }

 private:
  T v_;
  VectorClock write_stamp_;
  int writer_ = 0;
  mutable std::array<std::uint32_t, kMaxThreads + 1> read_epochs_{};
  int id_ = 0;
};

}  // namespace dws::check

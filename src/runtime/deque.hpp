// Chase-Lev work-stealing deque, following Le, Pop, Cohen & Zappa Nardelli,
// "Correct and Efficient Work-Stealing for Weak Memory Models" (PPoPP'13).
//
// The owner worker pushes and pops at the bottom; thieves steal from the
// top. All operations are lock-free; only the owner may call push()/pop().
// The buffer grows geometrically on overflow. Old buffers cannot be freed
// while concurrent thieves might still be reading them, so they are parked
// on a retire list and freed in the destructor. The parked memory is
// bounded by the live buffer (the retired capacities form a geometric
// series summing to less than the live capacity; see
// retired_capacity_total()), so retired + live stays within 2x the
// high-water mark, and steal() carries no reclamation bookkeeping.
//
// Fence budget on the owner's hot path (audited against the model
// checker, tests/test_check_deque.cpp): push() is one release fence plus
// a relaxed store — the acquire load of the thief-contended top_ is
// skipped via an owner-local cached lower bound (top_ is monotonic, so a
// stale cache can only make the fullness test conservative) and paid
// only when the cache says the buffer may be full. pop() keeps the one
// unavoidable seq_cst fence of the take/steal arbitration.
//
// The atomics are named through an injectable policy (core/atomics_policy.hpp)
// so the model checker in src/check can compile the *same* algorithm over
// instrumented atomics and exhaustively explore its interleavings and
// weak-memory read choices. Production code uses the default
// StdAtomicsPolicy and compiles exactly as before.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/atomics_policy.hpp"
#include "core/backlog_age.hpp"
#include "util/layout.hpp"

// ThreadSanitizer does not model std::atomic_thread_fence, so the
// fence-based release in push() is invisible to it and every owner->thief
// task handoff would be reported as a race. Under TSan we strengthen the
// bottom_ publication store from relaxed to release — a superset of the
// fence ordering, so the algorithm is unchanged — purely to make the
// synchronization visible to the tool. See docs/CHECKING.md.
#if defined(__SANITIZE_THREAD__)
#define DWS_DEQUE_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DWS_DEQUE_TSAN 1
#endif
#endif

namespace dws::rt {

/// T must be trivially copyable (we store raw task pointers).
template <typename T, typename Policy = StdAtomicsPolicy>
class ChaseLevDeque {
  static_assert(std::is_trivially_copyable_v<T>);

  template <typename U>
  using Atomic = typename Policy::template atomic<U>;

  static constexpr std::memory_order kPublishOrder =
#ifdef DWS_DEQUE_TSAN
      std::memory_order_release;
#else
      std::memory_order_relaxed;
#endif

 public:
  explicit ChaseLevDeque(std::size_t initial_capacity = 64)
      : top_(0), bottom_(0) {
    buffer_.store(new Buffer(round_up_pow2(initial_capacity)),
                  std::memory_order_relaxed);
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  ~ChaseLevDeque() {
    delete buffer_.load(std::memory_order_relaxed);
    for (Buffer* b : retired_) delete b;
  }

  /// Owner only: push one element at the bottom. The common case touches
  /// no thief-shared cache line before the publication store: top_cache_
  /// is an owner-local lower bound on top_ (top_ only grows), so a pass
  /// of the cached fullness test is definitive and the acquire refresh
  /// happens only when the deque looks full.
  ///
  /// Returns true when the owner last saw the deque empty, i.e. this push
  /// is its empty -> non-empty edge. The test reads only the cached top:
  /// it is exact after the owner's own last pop, and a deque that thieves
  /// emptied behind the owner's back does not count (those thieves are
  /// awake).
  bool push(T item) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    if (b - top_cache_ > static_cast<std::int64_t>(buf->capacity) - 1) {
      top_cache_ = top_.load(std::memory_order_acquire);
      if (b - top_cache_ > static_cast<std::int64_t>(buf->capacity) - 1) {
        buf = grow(buf, top_cache_, b);
      }
    }
    buf->put(b, item);
    Policy::fence(std::memory_order_release);
    bottom_.store(b + 1, kPublishOrder);
    return b == top_cache_;
  }

  /// Owner only: pop from the bottom (LIFO — preserves locality).
  std::optional<T> pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    Buffer* buf = buffer_.load(std::memory_order_relaxed);
    bottom_.store(b, std::memory_order_relaxed);
    Policy::fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    top_cache_ = t;  // read-read coherence: never older than a prior read
    if (t > b) {
      // Deque was already empty; restore bottom.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return std::nullopt;
    }
    T item = buf->get(b);
    if (t == b) {
      // Last element: race against thieves via CAS on top.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        // A thief won the race.
        bottom_.store(b + 1, std::memory_order_relaxed);
        top_cache_ = b + 1;  // the thief's CAS moved top_ to b + 1
        return std::nullopt;
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
      top_cache_ = b + 1;  // our CAS did: the deque is empty now
    }
    return item;
  }

  /// Any thread: steal from the top (FIFO end — steals the oldest, which
  /// in divide-and-conquer DAGs is the largest subtree). One seq_cst
  /// fence and, on a non-empty observation, the top_ CAS; an empty probe
  /// writes nothing.
  std::optional<T> steal() {
    std::int64_t t = top_.load(std::memory_order_acquire);
    Policy::fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return std::nullopt;  // observed empty
    Buffer* buf = buffer_.load(std::memory_order_consume);
    T item = buf->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return std::nullopt;  // lost the race to the owner or another thief
    }
    return item;
  }

  /// Racy size estimate for demand accounting (N_b); never negative.
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? static_cast<std::size_t>(b - t) : 0;
  }

  [[nodiscard]] bool empty_approx() const noexcept { return size_approx() == 0; }

  /// Racy (top, bottom) for the coordinator's backlog-age check
  /// (core/backlog_age.hpp). The two relaxed loads need not form one
  /// snapshot; a wrong verdict costs one demand step, which Eq. 1 then
  /// decides from the live backlog.
  [[nodiscard]] DequeMark mark() const noexcept {
    return {top_.load(std::memory_order_relaxed),
            bottom_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] std::size_t capacity() const noexcept {
    return buffer_.load(std::memory_order_relaxed)->capacity;
  }

  /// Buffers parked by grow() until the destructor. Quiescent use only
  /// (tests/diagnostics): the list is owner-mutated inside push().
  [[nodiscard]] std::size_t retired_count() const noexcept {
    return retired_.size();
  }

  /// Total element capacity of the retired buffers. The geometric growth
  /// guarantees this stays below capacity(), i.e. retired + live memory
  /// never exceeds 2x the live high-water mark.
  [[nodiscard]] std::size_t retired_capacity_total() const noexcept {
    std::size_t n = 0;
    for (const Buffer* b : retired_) n += b->capacity;
    return n;
  }

 private:
  friend struct dws::layout::Access;  // layout_audit reads private layouts

  struct Buffer {
    explicit Buffer(std::size_t cap)
        : capacity(cap), mask(cap - 1), data(new Atomic<T>[cap]) {}
    const std::size_t capacity;
    const std::size_t mask;
    // dws-layout: packed-ok ring elements are relaxed handoff cells, each
    // written by the owner and read once by the winning thief — never a
    // multi-writer CAS target, so striding them would only waste cache
    std::unique_ptr<Atomic<T>[]> data;

    void put(std::int64_t i, T v) {
      data[static_cast<std::size_t>(i) & mask].store(
          v, std::memory_order_relaxed);
    }
    T get(std::int64_t i) const {
      return data[static_cast<std::size_t>(i) & mask].load(
          std::memory_order_relaxed);
    }
  };

  static std::size_t round_up_pow2(std::size_t v) noexcept {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p < 2 ? 2 : p;
  }

  Buffer* grow(Buffer* old, std::int64_t t, std::int64_t b) {
    auto* bigger = new Buffer(old->capacity * 2);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    buffer_.store(bigger, std::memory_order_release);
    retired_.push_back(old);  // thieves may still read it
    return bigger;
  }

  alignas(64) DWS_SHARED Atomic<std::int64_t> top_;  // thieves CAS here
  alignas(64) DWS_OWNED_BY(owner) Atomic<std::int64_t> bottom_;
  DWS_OWNED_BY(owner)
  std::int64_t top_cache_ = 0;  // owner-local lower bound on top_
  alignas(64) DWS_OWNED_BY(owner) Atomic<Buffer*> buffer_;
  std::vector<Buffer*> retired_;  // owner-only mutation (inside push, rare)
};

}  // namespace dws::rt

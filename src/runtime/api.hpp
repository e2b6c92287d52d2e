// High-level parallel algorithms on top of the Scheduler: the API the
// Table-2 benchmark applications are written against.
//
//   dws::rt::parallel_for(sched, 0, n, grain, [&](i64 b, i64 e) {...});
//   dws::rt::parallel_invoke(sched, f, g, ...);
//   T r = dws::rt::parallel_reduce(sched, 0, n, grain, init, map, combine);
//
// All of them are structured (they wait before returning), recursive
// binary splitters, so the task DAGs they generate have the
// divide-and-conquer shape classic work-stealing is designed for.
#pragma once

#include <cstdint>
#include <mutex>
#include <utility>

#include "runtime/scheduler.hpp"

namespace dws::race {

// ---- Determinacy-race annotation API (see docs/CHECKING.md) ----
//
// Kernels annotate the shared-memory footprint of their parallel leaf
// bodies; the detectors (src/race/) check every pair of annotated
// accesses from logically parallel tasks — SP-bags during a serial
// replay, FastTrack riding the live parallel schedule; same stream,
// same annotations. With no active detector on the thread each call is one
// thread-local load and a predicted branch; with DWS_RACE_DISABLED
// (cmake -DDWS_RACE=OFF) the calls compile to nothing.

#ifndef DWS_RACE_DISABLED

/// `count` elements of T read starting at `p`, consecutive elements
/// `stride` (in elements, default contiguous) apart.
template <typename T>
inline void read(const T* p, std::size_t count = 1,
                 std::ptrdiff_t stride = 1) {
  if (MemorySink* s = detail::tl_sink(); s != nullptr) {
    s->on_access(p, sizeof(T), count,
                 stride * static_cast<std::ptrdiff_t>(sizeof(T)), false);
  }
}

/// Same shape as read(); also covers read-modify-write of the range
/// (a write conflicts with every other access, so in-place updates need
/// only the write annotation).
template <typename T>
inline void write(T* p, std::size_t count = 1, std::ptrdiff_t stride = 1) {
  if (MemorySink* s = detail::tl_sink(); s != nullptr) {
    s->on_access(p, sizeof(T), count,
                 stride * static_cast<std::ptrdiff_t>(sizeof(T)), true);
  }
}

/// The current task acquired the lock identified by `lock`'s address.
/// `name` (optional) labels the lock in race reports; the first non-null
/// name registered for an address wins. Accesses annotated while a lock
/// is held carry it in their lockset: the ALL-SETS detector only reports
/// a pair of parallel conflicting accesses when their locksets are
/// disjoint (see docs/CHECKING.md).
inline void lock_acquire(const void* lock, const char* name = nullptr) {
  if (MemorySink* s = detail::tl_sink(); s != nullptr) {
    s->on_lock_acquire(lock, name);
  }
}

/// The current task released `lock`. Must pair with lock_acquire on the
/// same task, stack-like or not (the detector keeps a multiset, so
/// hand-over-hand locking is representable).
inline void lock_release(const void* lock) {
  if (MemorySink* s = detail::tl_sink(); s != nullptr) {
    s->on_lock_release(lock);
  }
}

/// RAII mutex guard that annotates the acquire/release for the lockset
/// detector. Drop-in for std::lock_guard at annotated call sites:
///
///   race::scoped_lock<std::mutex> lock(m, "histogram.bins");
///
/// The real mutex is always acquired (also under -DDWS_RACE=OFF, where
/// only the annotations compile out) — the guard changes checking, never
/// synchronization. Nested acquisitions additionally feed the deadlock
/// analysis (src/race/lockgraph.hpp), and scripts/lint.sh requires every
/// call site to declare its lock's order class on the same line with a
/// `// lock-order: CLASS` tag registered in scripts/lock_order.txt (see
/// that file for the tag grammar).
template <typename Mutex>
class scoped_lock {
 public:
  explicit scoped_lock(Mutex& m, const char* name = nullptr) : m_(m) {
    m_.lock();
    lock_acquire(&m_, name);
  }
  scoped_lock(const scoped_lock&) = delete;
  scoped_lock& operator=(const scoped_lock&) = delete;
  ~scoped_lock() {
    lock_release(&m_);
    m_.unlock();
  }

 private:
  Mutex& m_;
};

/// RAII provenance label: tasks spawned while a region is active carry
/// its name in their spawn-tree chain in race reports.
class region {
 public:
  explicit region(const char* name) noexcept : sink_(detail::tl_sink()) {
    if (sink_ != nullptr) sink_->on_region_enter(name);
  }
  region(const region&) = delete;
  region& operator=(const region&) = delete;
  ~region() {
    // Paired with the sink captured at entry: a detector attached or
    // detached inside the region cannot unbalance the label stack.
    if (sink_ != nullptr) sink_->on_region_exit();
  }

 private:
  MemorySink* sink_;
};

#else  // DWS_RACE_DISABLED

template <typename T>
inline void read(const T*, std::size_t = 1, std::ptrdiff_t = 1) {}
template <typename T>
inline void write(T*, std::size_t = 1, std::ptrdiff_t = 1) {}
inline void lock_acquire(const void*, const char* = nullptr) {}
inline void lock_release(const void*) {}
template <typename Mutex>
class scoped_lock {
 public:
  explicit scoped_lock(Mutex& m, const char* = nullptr) : m_(m) {
    m_.lock();
  }
  scoped_lock(const scoped_lock&) = delete;
  scoped_lock& operator=(const scoped_lock&) = delete;
  ~scoped_lock() { m_.unlock(); }

 private:
  Mutex& m_;
};
class region {
 public:
  explicit region(const char*) noexcept {}
  region(const region&) = delete;
  region& operator=(const region&) = delete;
};

#endif  // DWS_RACE_DISABLED

}  // namespace dws::race

namespace dws::rt {

namespace detail {

template <typename Body>
void parallel_for_split(Scheduler& sched, TaskGroup& group, std::int64_t begin,
                        std::int64_t end, std::int64_t grain,
                        const Body& body) {
  while (end - begin > grain) {
    const std::int64_t mid = begin + (end - begin) / 2;
    // Spawn the upper half; keep descending into the lower half ourselves
    // (work-first). Thieves steal the larger, older subtree.
    sched.spawn(group, [&sched, &group, mid, end, grain, &body] {
      parallel_for_split(sched, group, mid, end, grain, body);
    });
    end = mid;
  }
  body(begin, end);
}

}  // namespace detail

/// Apply `body(b, e)` over [begin, end) in subranges of at most `grain`
/// elements, in parallel. `body` must be safe to run concurrently on
/// disjoint subranges and must remain alive until the call returns.
template <typename Body>
void parallel_for(Scheduler& sched, std::int64_t begin, std::int64_t end,
                  std::int64_t grain, const Body& body) {
  if (begin >= end) return;
  if (grain < 1) grain = 1;
  if (end - begin <= grain) {
    body(begin, end);
    return;
  }
  TaskGroup group;
  // The splitter's spawns must land on a worker deque: a worker of `sched`
  // runs it inline, an external thread inside a root task.
  //
  // Exception safety: tasks already spawned into `group` hold references
  // to `group` and `body`; if the splitter throws (the caller's body threw
  // on its own descend path), those tasks must be drained before this
  // frame unwinds. The first exception wins; drain-time exceptions are
  // already captured in `group` and superseded.
  try {
    auto split = [&sched, &group, begin, end, grain, &body] {
      detail::parallel_for_split(sched, group, begin, end, grain, body);
    };
    if (sched.on_worker_thread()) {
      split();
    } else {
      sched.run(split);
    }
  } catch (...) {
    try {
      sched.wait(group);
    } catch (...) {
    }
    throw;
  }
  sched.wait(group);
}

/// Convenience overload: per-index body `f(i)`.
template <typename IndexBody>
void parallel_for_each_index(Scheduler& sched, std::int64_t begin,
                             std::int64_t end, std::int64_t grain,
                             const IndexBody& f) {
  parallel_for(sched, begin, end, grain,
               [&f](std::int64_t b, std::int64_t e) {
                 for (std::int64_t i = b; i < e; ++i) f(i);
               });
}

/// Run all functors in parallel and wait for every one of them.
template <typename... Fs>
void parallel_invoke(Scheduler& sched, Fs&&... fs) {
  TaskGroup group;
  try {
    auto spawn_all = [&] { (sched.spawn(group, std::forward<Fs>(fs)), ...); };
    if (sched.on_worker_thread()) {
      spawn_all();
    } else {
      sched.run(spawn_all);
    }
  } catch (...) {
    try {
      sched.wait(group);
    } catch (...) {
    }
    throw;
  }
  sched.wait(group);
}

/// Parallel map-reduce over [begin, end): `map(b, e)` produces a partial
/// result per leaf range, folded left-to-right-agnostically with
/// `combine`. `combine` must be associative and commutative.
template <typename T, typename Map, typename Combine>
T parallel_reduce(Scheduler& sched, std::int64_t begin, std::int64_t end,
                  std::int64_t grain, T identity, const Map& map,
                  const Combine& combine) {
  if (begin >= end) return identity;
  T result = identity;
  std::mutex result_m;
  parallel_for(sched, begin, end, grain,
               [&](std::int64_t b, std::int64_t e) {
                 T partial = map(b, e);
                 race::scoped_lock<std::mutex> lock(  // lock-order: reduce.combine
                     result_m, "parallel_reduce.combine");
                 result = combine(std::move(result), std::move(partial));
               });
  return result;
}

}  // namespace dws::rt

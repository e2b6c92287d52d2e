#include "runtime/worker.hpp"

#include <chrono>

#include "runtime/scheduler.hpp"
#include "util/affinity.hpp"

namespace dws::rt {

namespace {
thread_local Worker* g_tls_worker = nullptr;
}  // namespace

Worker* current_worker() noexcept { return g_tls_worker; }

Worker::Worker(Scheduler& sched, unsigned id)
    : sched_(sched),
      id_(id),
      rng_(sched.config().seed ^ (0x9E3779B97F4A7C15ULL * (id + 1))),
      victim_order_(sched.topology(), id, sched.config().num_cores),
      policy_(sched.config().mode,
              sched.config().effective_t_sleep(sched.config().num_cores)) {}

Worker::~Worker() {
  if (thread_.joinable()) thread_.join();
}

void Worker::start() { thread_ = std::thread([this] { thread_main(); }); }

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

bool Worker::wake() noexcept {
  std::lock_guard<std::mutex> lock(m_);
  if (state() != State::kSleeping) return false;
  wake_pending_ = true;
  cv_.notify_one();
  return true;
}

void Worker::notify_shutdown() noexcept {
  std::lock_guard<std::mutex> lock(m_);
  cv_.notify_all();
}

bool Worker::should_vacate() const noexcept {
  // Space-sharing modes: we may only run while the allocation table lists
  // our program as this core's user. If our coordinator lost the core (we
  // released it and someone claimed it) or the home owner reclaimed it,
  // this worker must vacate at its next policy check.
  return sched_.table()->user_of(id_) != sched_.pid();
}

TaskBase* Worker::find_task() {
  // Algorithm 1 lines 4-5: own pool first (LIFO bottom => locality).
  if (auto t = deque_.pop()) return *t;
  // Externally injected tasks (run() from a non-worker thread).
  if (TaskBase* t = sched_.try_pop_inbox()) return t;
  // Algorithm 1 lines 8-10: one steal attempt per call, a near-first sweep
  // over every victim that stops at the first hit. The single-worker guard
  // owns the edge where there is no victim to draw.
  if (sched_.num_workers() <= 1) return nullptr;
  TaskBase* stolen = nullptr;
  const VictimPick hit = victim_order_.sweep(rng_, [&](VictimPick pick) {
    ++stats_.steal_attempts;
    ++stats_.steal_attempts_by_tier[static_cast<int>(pick.tier)];
    stolen = sched_.workers_[pick.victim]->deque_.steal().value_or(nullptr);
    return stolen != nullptr;
  });
  if (hit.victim == kNoVictim) {
    ++stats_.failed_steals;
    return nullptr;
  }
  ++stats_.steals;
  ++stats_.steals_by_tier[static_cast<int>(hit.tier)];
  return stolen;
}

void Worker::go_to_sleep(bool count_as_eviction) {
  policy_.on_sleep();
  ++stats_.sleeps;
  if (count_as_eviction) ++stats_.evictions;

  // Order matters for the wake protocol: become Sleeping *before*
  // releasing the core, so that a coordinator that wins the freed core is
  // guaranteed to find a wakeable worker (see DESIGN.md §4.2).
  {
    std::lock_guard<std::mutex> lock(m_);
    state_.store(static_cast<int>(State::kSleeping),
                 std::memory_order_release);
  }
  if (mode_space_shares(sched_.mode())) {
    // CAS-guarded: fails harmlessly when the core was reclaimed from us.
    sched_.table()->release(id_, sched_.pid());
  }
  const auto slept_at = std::chrono::steady_clock::now();
  {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] {
      return wake_pending_ || sched_.shutdown_requested();
    });
    wake_pending_ = false;
    state_.store(static_cast<int>(State::kActive), std::memory_order_release);
  }
  ++stats_.wakes;
  const Config& cfg = sched_.config();
  if (cfg.adaptive_t_sleep && !sched_.shutdown_requested()) {
    const double slept_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - slept_at)
                                .count();
    if (AdaptiveTSleep::premature(slept_ms, cfg.adaptive_short_sleep_ms,
                                  cfg.coordinator_period_ms)) {
      sched_.step_t_sleep(&AdaptiveTSleep::escalate);
    }
  }
}

void Worker::idle_gate_block() {
  std::unique_lock<std::mutex> lock(sched_.gate_m_);
  sched_.gate_cv_.wait(lock, [this] {
    return sched_.total_pending_.load(std::memory_order_acquire) > 0 ||
           sched_.shutdown_requested();
  });
}

void Worker::thread_main() {
  g_tls_worker = this;
  // Task-pool ownership belongs to this thread: every allocate() happens
  // inside Scheduler::spawn called from task bodies running here, which
  // is necessarily after this bind.
  pool_.bind_owner();
  if (sched_.config().pin_threads) util::pin_this_thread(id_);

  // EP: workers outside the static home partition never run (§2.2 —
  // equipartition is not adaptive; that is exactly its weakness).
  if (sched_.mode() == SchedMode::kEp &&
      sched_.table()->home_of(id_) != sched_.pid()) {
    state_.store(static_cast<int>(State::kParked), std::memory_order_release);
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return sched_.shutdown_requested(); });
    g_tls_worker = nullptr;
    return;
  }

  const bool space_sharing = mode_space_shares(sched_.mode());
  const bool sleeping_mode = mode_sleeps(sched_.mode());

  while (!sched_.shutdown_requested()) {
    // DWS: a worker whose core we do not (or no longer) own sleeps until
    // the coordinator secures the core and wakes it. This both realizes
    // the initial equipartition (non-home workers park here at startup)
    // and the take-back protocol (§3.3 constraint 2).
    if (space_sharing && should_vacate()) {
      if (sched_.mode() == SchedMode::kEp) {
        // EP home cores are never exchanged, so this cannot happen; guard
        // anyway to keep the invariant explicit.
        break;
      }
      go_to_sleep(/*count_as_eviction=*/true);
      continue;
    }

    if (TaskBase* t = find_task()) {
      policy_.on_task_acquired();
      ++stats_.tasks_executed;
      sched_.execute(t);
      continue;
    }

    // Nothing anywhere. If the program as a whole has no in-flight work,
    // park on the idle gate instead of burning the core (non-sleeping
    // modes only: in DWS/DWS-NC the T_SLEEP path below is the idle
    // mechanism and additionally releases the core for co-runners).
    if (!sleeping_mode &&
        sched_.total_pending_.load(std::memory_order_acquire) == 0) {
      idle_gate_block();
      continue;
    }

    if (sched_.config().adaptive_t_sleep) {
      policy_.set_t_sleep(sched_.current_t_sleep());
    }
    switch (policy_.on_steal_failed()) {
      case StealOutcome::kRetry:
        // CLASSIC: busy spin; a pause instruction keeps the hyperthread
        // polite without yielding the time slice.
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
        break;
      case StealOutcome::kYield:
        ++stats_.yields;
        std::this_thread::yield();
        break;
      case StealOutcome::kSleep:
        go_to_sleep(/*count_as_eviction=*/false);
        break;
    }
  }
  g_tls_worker = nullptr;
}

}  // namespace dws::rt

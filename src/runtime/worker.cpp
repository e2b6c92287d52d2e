#include "runtime/worker.hpp"

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
      // T_SLEEP = k (§3.4).
      policy_(sched.config().mode,
              static_cast<int>(sched.config().num_cores)) {}

Worker::~Worker() {
  if (thread_.joinable()) thread_.join();
}

void Worker::start() { thread_ = std::thread([this] { thread_main(); }); }

void Worker::join() {
  if (thread_.joinable()) thread_.join();
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
    stolen = sched_.workers_[pick.victim]->deque_.steal().value_or(nullptr);
    return stolen != nullptr;
  });
  if (hit.victim == kNoVictim) {
    ++stats_.failed_steals;
    return nullptr;
  }
  ++stats_.steals;
  return stolen;
}

bool Worker::lingers() const {
  if (ran_dry_ - busy_since_ < kWakeCost && sched_.active_workers() != 1) {
    return false;
  }
  return std::chrono::steady_clock::now() - ran_dry_ < kLinger;
}

void Worker::go_to_sleep(bool count_as_eviction) {
  policy_.on_sleep();

  // Order matters for the wake protocol: become Sleeping *before*
  // releasing the core, so that a coordinator that wins the freed core is
  // guaranteed to find a wakeable worker (see DESIGN.md §4.2). The
  // re-check of the inbox is the sleep word's Dekker handshake with
  // Scheduler::enqueue, which skips the coordinator nudge while it sees an
  // Active worker.
  if (sleep_.publish_sleeping(sched_.inbox_size_,
                              /*take_back=*/!count_as_eviction)) {
    // Kept the core to take the task.
    if (!count_as_eviction) return;
    // An evicted worker cannot keep a core that is no longer ours: hand
    // the task to the coordinator instead.
    if (sched_.coordinator_) sched_.coordinator_->nudge();
  }

  ++stats_.sleeps;
  if (count_as_eviction) ++stats_.evictions;
  sched_.sleepers_.fetch_add(1, std::memory_order_relaxed);
  if (mode_space_shares(sched_.mode())) {
    // CAS-guarded: fails harmlessly when the core was reclaimed from us.
    sched_.table()->release(id_, sched_.pid());
  }
  sleep_.block();
  sched_.sleepers_.fetch_sub(1, std::memory_order_relaxed);
  ++stats_.wakes;
}

void Worker::thread_main() {
  g_tls_worker = this;
  // Task-pool ownership belongs to this thread: every allocate() happens
  // inside Scheduler::spawn called from task bodies running here, which
  // is necessarily after this bind.
  pool_.bind_owner();
  if (sched_.config().pin_threads) util::pin_this_thread(id_);

  // EP: a worker on a core its program does not hold at start never runs
  // (§2.2 — equipartition never adjusts; that is exactly its weakness).
  // That covers cores outside the home partition and home cores another
  // program already holds; EP never releases a core, so the ones it does
  // hold stay its own.
  if (sched_.mode() == SchedMode::kEp && should_vacate()) {
    sleep_.park();
    g_tls_worker = nullptr;
    return;
  }

  const bool space_sharing = mode_space_shares(sched_.mode());
  const bool sleeping_mode = mode_sleeps(sched_.mode());

  while (!sleep_.shut_down()) {
    // DWS: a worker whose core we do not (or no longer) own sleeps until
    // the coordinator secures the core and wakes it. This both realizes
    // the initial equipartition (non-home workers park here at startup)
    // and the take-back protocol (§3.3 constraint 2).
    if (space_sharing && should_vacate()) {
      go_to_sleep(/*count_as_eviction=*/true);
      continue;
    }

    if (TaskBase* t = find_task()) {
      policy_.on_task_acquired();
      if (ran_dry_ >= busy_since_) {
        busy_since_ = std::chrono::steady_clock::now();
      }
      ++stats_.tasks_executed;
      sched_.execute(t);
      continue;
    }

    if (busy_since_ > ran_dry_) ran_dry_ = std::chrono::steady_clock::now();

    // Nothing anywhere. If the program as a whole has no in-flight work,
    // block on the sleep word instead of burning the core (non-sleeping
    // modes only: in DWS/DWS-NC the T_SLEEP path below is the idle
    // mechanism and additionally releases the core for co-runners). The
    // re-check of the count is the handshake with Scheduler::enqueue's
    // wake on its 0 -> 1 edge. No sleep is counted and the core is kept.
    if (!sleeping_mode &&
        sched_.total_pending_.load(std::memory_order_acquire) == 0) {
      if (!sleep_.publish_sleeping(sched_.total_pending_,
                                   /*take_back=*/true)) {
        sleep_.block();
      }
      continue;
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
        // Spin, then block: the program's last Active worker, and one
        // whose busy stretch paid for a wake, keep searching through a
        // short gap (kLinger), so the next phase or external run() finds
        // a core held and a searcher ready; everyone else sleeps now.
        if (lingers()) {
          ++stats_.yields;
          std::this_thread::yield();
          break;
        }
        go_to_sleep(/*count_as_eviction=*/false);
        break;
    }
  }
  g_tls_worker = nullptr;
}

}  // namespace dws::rt

#include "runtime/scheduler.hpp"

#include <unistd.h>

#include <chrono>
#include <stdexcept>

#include "util/affinity.hpp"

namespace dws::rt {

Scheduler::Scheduler(const Config& cfg, CoreTable* shared_table) : cfg_(cfg) {
  if (cfg_.num_cores == 0) cfg_.num_cores = util::hardware_cores();
  const unsigned k = cfg_.num_cores;
  // Machine model before any worker exists: workers bucket their victims
  // by distance at construction. The runtime's machine is flat.
  topology_ = Topology::synthetic(k, 1);

  if (mode_space_shares(cfg_.mode)) {
    if (shared_table != nullptr) {
      // Workers index the table by core id: a narrower table would be
      // read past its end.
      if (shared_table->num_cores() != k) {
        throw std::invalid_argument(
            "shared core table width must match Config::num_cores");
      }
      table_ = shared_table;
    } else {
      owned_table_ = std::make_unique<CoreTableLocal>(k, cfg_.num_programs);
      table_ = &owned_table_->table();
    }
    pid_ = table_->register_program();
    // Crash tolerance: publish our OS pid + heartbeat epoch *before*
    // claiming any core, so every core we ever hold is covered by
    // liveness evidence and recoverable if this process dies.
    table_->bind_liveness(pid_, static_cast<std::uint32_t>(::getpid()));
    // Realize the initial equipartition (§3.1): grab whatever home cores
    // are free right now. Workers on unowned cores park themselves.
    table_->claim_home_cores(pid_);
  } else {
    // Time-sharing modes have no table; the program id is only used for
    // logging/stats.
    pid_ = 1;
  }

  workers_.reserve(k);
  for (unsigned i = 0; i < k; ++i) {
    workers_.push_back(std::make_unique<Worker>(*this, i));
  }
  // All workers must exist before any thread can look up steal victims.
  for (auto& w : workers_) w->start();

  if (mode_sleeps(cfg_.mode)) {
    coordinator_ = std::make_unique<Coordinator>(*this);
    coordinator_->start();
  }
}

Scheduler::~Scheduler() {
  if (coordinator_) coordinator_->stop();
  for (auto& w : workers_) w->notify_shutdown();
  for (auto& w : workers_) w->join();

  if (table_ != nullptr) table_->unregister_program(pid_);

  // Contract: all submitted work was waited for. Anything still queued is
  // destroyed without running (and without touching its — possibly
  // already destroyed — group). destroy() routes pooled tasks back to
  // their home pools, which outlive this drain (workers_ is destroyed
  // after the destructor body).
  while (TaskBase* t = try_pop_inbox()) t->destroy();
  for (auto& w : workers_) {
    while (auto t = w->deque().pop()) (*t)->destroy();
  }
}

void Scheduler::enqueue(TaskBase* task, Worker* w) {
  // seq_cst, then the wakes below on the 0 -> 1 edge: our half of the idle
  // handshake (SleepWord::publish_sleeping over this count).
  const std::int64_t prev =
      total_pending_.fetch_add(1, std::memory_order_seq_cst);
  if (w != nullptr) {
    // Algorithm 1's common case: spawn onto the spawning worker's deque.
    // Its empty -> non-empty edge arms the coordinator's backlog watch
    // while a worker sleeps; the arm itself is a no-op while armed.
    if (w->deque().push(task) &&
        sleepers_.load(std::memory_order_relaxed) != 0 && coordinator_) {
      coordinator_->arm_backlog_watch();
    }
    return;
  }
  // External submission: through the injection inbox.
  {
    std::lock_guard<std::mutex> lock(inbox_m_);
    task->set_inbox_next(nullptr);
    if (inbox_tail_ != nullptr) {
      inbox_tail_->set_inbox_next(task);
    } else {
      inbox_head_ = task;
    }
    inbox_tail_ = task;
  }
  // seq_cst, then the state scan below: our half of the Dekker handshake
  // with SleepWord::publish_sleeping (publish Sleeping, then re-read this
  // count).
  inbox_size_.fetch_add(1, std::memory_order_seq_cst);
  if (prev == 0) {
    // The program was idle. In the sleeping modes an Active worker (the
    // lingering last searcher) takes the task from the inbox within
    // microseconds; only a fully asleep program needs the coordinator's
    // nap cut short. The other modes wake every worker blocked idle; the
    // wake's CAS misses Active and Parked ones.
    if (coordinator_) {
      if (active_workers() == 0) coordinator_->nudge();
    } else {
      for (auto& worker : workers_) (void)worker->wake();
    }
  }
}

void Scheduler::execute(TaskBase* task) noexcept {
  task->run_and_destroy();
  total_pending_.fetch_sub(1, std::memory_order_acq_rel);
}

TaskBase* Scheduler::try_pop_inbox() {
  if (inbox_size_.load(std::memory_order_acquire) == 0) return nullptr;
  std::lock_guard<std::mutex> lock(inbox_m_);
  TaskBase* t = inbox_head_;
  if (t == nullptr) return nullptr;
  inbox_head_ = t->inbox_next();
  if (inbox_head_ == nullptr) inbox_tail_ = nullptr;
  inbox_size_.fetch_sub(1, std::memory_order_release);
  return t;
}

namespace {

// Join-edge for the live-schedule detector (FastTrack mode): the waiter
// acquires everything the group's completed tasks published. Called once
// the count reads zero: every task runs its on_task_end before its
// decrement, so every completer's on_task_end has already run.
inline void race_notify_wait_done(TaskGroup& group) noexcept {
#ifndef DWS_RACE_DISABLED
  if (race::ParallelHook* ph =
          race::detail::parallel_hook().load(std::memory_order_acquire);
      ph != nullptr) {
    ph->on_wait_done(group);
  }
#else
  (void)group;
#endif
}

}  // namespace

void Scheduler::wait(TaskGroup& group) {
  group.strict_on_wait();
#ifndef DWS_RACE_DISABLED
  if (race::ExecHook* h = exec_hook_.load(std::memory_order_acquire);
      h != nullptr) {
    // End-finish for the replay's SP bookkeeping. Every task already ran
    // inline at its spawn site, so the drain loops below fall straight
    // through on done().
    h->on_wait(*this, group);
  }
#endif
  Worker* w = current_worker();
  if (w == nullptr || &w->sched_ != this) {
    // External thread: it has no deque to help from, so it blocks until
    // the group's final completer wakes it.
    group.join().wait();
  } else {
    // Help-first join: execute whatever is available until the group
    // drains. The waiter never goes to sleep here — its stack holds the
    // continuation — so after a yield phase it parks on the join word for
    // at most 200 µs (woken early on drain). The bound is not a
    // lost-wakeup cover: it is how often the waiter looks for new work.
    int consecutive_failures = 0;
    while (!group.done()) {
      if (TaskBase* t = w->find_task()) {
        consecutive_failures = 0;
        ++w->stats_.tasks_executed;
        execute(t);
        continue;
      }
      ++consecutive_failures;
      if (consecutive_failures < 64) {
        std::this_thread::yield();
      } else {
        group.join().wait_until(std::chrono::steady_clock::now() +
                                std::chrono::microseconds(200));
      }
    }
  }
  race_notify_wait_done(group);
  group.strict_on_wait_done();
  group.rethrow_if_exception();
}

std::uint64_t Scheduler::queued_tasks() const noexcept {
  std::uint64_t n = inbox_size_.load(std::memory_order_acquire);
  for (const auto& w : workers_) n += w->queue_size();
  return n;
}

unsigned Scheduler::active_workers() const noexcept {
  unsigned n = 0;
  for (const auto& w : workers_) {
    if (w->state() == Worker::State::kActive) ++n;
  }
  return n;
}

unsigned Scheduler::sleeping_workers() const noexcept {
  unsigned n = 0;
  for (const auto& w : workers_) {
    if (w->state() == Worker::State::kSleeping) ++n;
  }
  return n;
}

SchedulerStats Scheduler::stats() const {
  SchedulerStats s;
  s.per_worker.reserve(workers_.size());
  for (const auto& w : workers_) {
    const WorkerStats& ws = w->stats();
    s.per_worker.push_back(ws);
    s.totals.tasks_executed += ws.tasks_executed;
    s.totals.steal_attempts += ws.steal_attempts;
    s.totals.steals += ws.steals;
    s.totals.failed_steals += ws.failed_steals;
    s.totals.yields += ws.yields;
    s.totals.sleeps += ws.sleeps;
    s.totals.wakes += ws.wakes;
    s.totals.evictions += ws.evictions;
    s.totals.heap_spawns += ws.heap_spawns;
  }
  if (coordinator_) {
    s.coordinator_ticks = coordinator_->ticks();
    s.coordinator_wakes = coordinator_->wakes();
    s.cores_claimed = coordinator_->cores_claimed();
    s.cores_reclaimed = coordinator_->cores_reclaimed();
    s.stale_programs_swept = coordinator_->stale_programs_swept();
    s.cores_recovered = coordinator_->cores_recovered();
  }
  return s;
}

TaskAllocStats Scheduler::alloc_stats() const {
  TaskAllocStats a;
  a.external_spawns = external_spawns_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    const TaskPoolStats p = w->pool_.stats();
    a.pooled_spawns += p.slot_allocs;
    a.slab_allocs += p.slab_allocs;
    a.local_frees += p.local_frees;
    a.remote_frees += p.remote_frees;
    a.remote_drains += p.remote_drains;
    a.heap_spawns += w->stats_.heap_spawns;
  }
  return a;
}

}  // namespace dws::rt

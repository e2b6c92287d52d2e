#include "runtime/coordinator.hpp"

#include <chrono>

#include "runtime/scheduler.hpp"

namespace dws::rt {

Coordinator::Coordinator(Scheduler& sched)
    : sched_(sched) {
  if (mode_space_shares(sched_.mode())) {
    // Anchor the topology-aware ordering at the program's first home core
    // (the home partition is contiguous, so one anchor represents it).
    const std::vector<CoreId> home = sched_.table()->home_cores(sched_.pid());
    driver_ = std::make_unique<CoordinatorDriver>(
        *sched_.table(), sched_.pid(), &sched_.topology(),
        home.empty() ? 0 : home.front());
    if (sched_.config().stale_after_periods > 0) {
      sweeper_ = std::make_unique<StaleSweeper>(
          *sched_.table(), sched_.pid(), sched_.config().stale_after_periods);
    }
  }
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void Coordinator::stop() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_requested_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
}

void Coordinator::thread_main() {
  const auto period = std::chrono::duration<double, std::milli>(
      sched_.config().coordinator_period_ms);
  std::unique_lock<std::mutex> lock(m_);
  while (!stop_requested_) {
    // Sleeping every T ms (§3.4). nudge() cuts the wait short so
    // externally submitted work on a fully-asleep program is picked up
    // promptly; its flag outlives a nudge that lands mid-tick, which then
    // ends the next wait at once instead of being lost for a period.
    cv_.wait_for(lock, period, [this] { return nudged_ || stop_requested_; });
    if (stop_requested_) break;
    nudged_ = false;
    lock.unlock();
    tick();
    lock.lock();
  }
}

void Coordinator::nudge() noexcept {
  std::lock_guard<std::mutex> lock(m_);
  nudged_ = true;
  cv_.notify_all();
}

void Coordinator::tick() {
  ticks_.fetch_add(1, std::memory_order_relaxed);

  if (driver_ != nullptr) {
    // Liveness: tell co-runners we are alive, then recover from any that
    // no longer are. Sweeping before the snapshot means cores freed from
    // a dead co-runner count toward N_f in *this* tick's decision — the
    // survivor's demand-aware wake path absorbs them immediately.
    sched_.table()->heartbeat(sched_.pid());
    if (sweeper_ != nullptr) {
      const StaleSweepResult swept = sweeper_->sweep();
      if (!swept.empty()) {
        stale_programs_swept_.fetch_add(swept.declared_dead.size(),
                                        std::memory_order_relaxed);
        cores_recovered_.fetch_add(swept.freed.size(),
                                   std::memory_order_relaxed);
      }
    }
  }

  const DemandSnapshot demand{.queued_tasks = sched_.queued_tasks(),
                              .active_workers = sched_.active_workers(),
                              .sleeping_workers = sched_.sleeping_workers()};
  // Counted per wake, not from the returned record: a claim or reclaim is
  // counted before its worker wakes, so a stats() reader that has seen
  // the woken worker's work (through the wake's mutex) also sees it.
  run_coordinator_step(
      driver_.get(), demand, sched_.num_workers(),
      [this](CoreId c, WakeReason why) {
        if (why == WakeReason::kClaimed) {
          cores_claimed_.fetch_add(1, std::memory_order_relaxed);
        } else if (why == WakeReason::kReclaimed) {
          cores_reclaimed_.fetch_add(1, std::memory_order_relaxed);
        }
        const bool woke = sched_.worker_at(c).wake();
        if (woke) wakes_.fetch_add(1, std::memory_order_relaxed);
        return woke;
      });
}

}  // namespace dws::rt

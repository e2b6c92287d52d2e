#include "runtime/coordinator.hpp"

#include <algorithm>
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
  signals_.stop();
  if (thread_.joinable()) thread_.join();
}

void Coordinator::thread_main() {
  using Clock = std::chrono::steady_clock;
  // Capped at about 30 years so the deadline arithmetic cannot overflow;
  // tests push the period out of reach with values like 1e9 ms.
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(
          std::min(sched_.config().coordinator_period_ms, 1e12)));
  constexpr auto kNoWatch = Clock::time_point::max();
  auto next_tick = Clock::now() + period;
  auto watch_end = kNoWatch;  // the running backlog watch's end
  for (;;) {
    // Sleeping every T ms (§3.4). A nudge, or the end of a backlog watch,
    // runs the demand step alone in between, so the period's heartbeat and
    // stale sweep keep their once-per-T cadence and a watch never delays
    // a period. A wait that returns early finds nothing due and waits again.
    const std::uint32_t s =
        signals_.wait_until(std::min(watch_end, next_tick));
    if ((s & SignalWord<>::kStop) != 0) break;
    const auto now = Clock::now();
    if (now >= next_tick || (s & SignalWord<>::kNudge) != 0) {
      if (now >= next_tick) {
        next_tick = now + period;
        tick();
      } else {
        step();
      }
      watch_end = kNoWatch;  // the step just read the live backlog
      (void)signals_.end_watch();
    } else if (watch_end == kNoWatch) {
      if ((s & SignalWord<>::kArmed) != 0) {
        start_watch();
        watch_end = now + watch_wait_;
      }
    } else if (now >= watch_end) {
      watch_end = kNoWatch;
      end_watch();
    }
  }
}

void Coordinator::start_watch() {
  // Disarm before marking. The arm's fetch_or and this disarm are acq_rel
  // RMWs on one word: either the disarm reads a push edge's arm, and then
  // the marks below see that push, or the edge's arm comes later and
  // starts the next watch. No edge is lost.
  signals_.begin_watch();
  const unsigned k = sched_.num_workers();
  marks_.resize(k);
  for (unsigned i = 0; i < k; ++i) {
    marks_[i] = sched_.worker_at(i).deque().mark();
  }
}

void Coordinator::end_watch() {
  const bool armed = signals_.end_watch();
  for (unsigned i = 0; i < sched_.num_workers(); ++i) {
    if (backlog_aged(marks_[i], sched_.worker_at(i).deque().mark())) {
      watch_wait_ = kBacklogAge;
      step();
      return;
    }
  }
  watch_wait_ = armed ? std::min(2 * watch_wait_, kBacklogWatchCap)
                      : kBacklogAge;
}

void Coordinator::tick() {
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
  step();
}

void Coordinator::step() {
  ticks_.fetch_add(1, std::memory_order_relaxed);
  const DemandSnapshot demand{.queued_tasks = sched_.queued_tasks(),
                              .active_workers = sched_.active_workers(),
                              .sleeping_workers = sched_.sleeping_workers()};
  // Counted per wake, not from the returned record: a claim or reclaim is
  // counted before its worker wakes, so a stats() reader that has seen
  // the woken worker's work (through the wake's release CAS) also sees it.
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

#include "core/coordinator_policy.hpp"

#include <signal.h>

#include <algorithm>
#include <cerrno>
#include <cmath>

namespace dws {

WakeDecision CoordinatorPolicy::decide(const DemandSnapshot& s) const noexcept {
  WakeDecision d;
  if (s.queued_tasks == 0 || s.sleeping_workers == 0) return d;

  // Eq. 1: N_w = N_b / N_a. With no active workers the program is stalled
  // (every worker slept while tasks remained or arrived); the backlog
  // itself is then the demand.
  const double backlog_per_worker =
      s.active_workers > 0 ? static_cast<double>(s.queued_tasks) /
                                 static_cast<double>(s.active_workers)
                           : static_cast<double>(s.queued_tasks);
  if (backlog_per_worker < 1.0) return d;
  // Round to the nearest worker (2.5 tasks per worker wakes 3).
  auto n_w = static_cast<unsigned>(std::llround(backlog_per_worker));

  // We cannot usefully wake more workers than are asleep.
  n_w = std::min(n_w, s.sleeping_workers);

  const unsigned n_f = s.free_cores;
  const unsigned n_r = reclaim_ ? s.reclaimable_cores : 0;
  if (n_w <= n_f) {
    // Case 1: enough free cores for everyone we want to wake.
    d.wake_on_free = n_w;
  } else if (n_w <= n_f + n_r) {
    // Case 2: top up with our own cores currently lent out.
    d.wake_on_free = n_f;
    d.wake_on_reclaim = n_w - n_f;
  } else {
    // Case 3: demand exceeds what constraint 3 lets us take; grab all free
    // cores and everything of ours that is reclaimable, nothing more.
    d.wake_on_free = n_f;
    d.wake_on_reclaim = n_r;
  }
  return d;
}

CoordinatorDriver::CoordinatorDriver(CoreTable& table, ProgramId pid,
                                     const Topology* topo, CoreId home_core)
    : table_(&table), pid_(pid), topo_(topo), home_core_(home_core) {}

DemandSnapshot CoordinatorDriver::snapshot_cores() const noexcept {
  DemandSnapshot s;
  s.free_cores = table_->count_free();
  s.reclaimable_cores = table_->count_borrowed_from(pid_);
  return s;
}

void CoordinatorDriver::order_candidates(std::vector<CoreId>& cores) const {
  // free_cores()/borrowed_home_cores() scan the table in slot order, so
  // the input is already id-ascending — but never rely on that: the
  // tie-break is this sort, not the producer's iteration order.
  std::sort(cores.begin(), cores.end(), [this](CoreId a, CoreId b) {
    if (topo_ != nullptr) {
      const auto ta = topo_->distance(home_core_, a);
      const auto tb = topo_->distance(home_core_, b);
      if (ta != tb) return ta < tb;
    }
    return a < b;
  });
}

AcquireResult CoordinatorDriver::acquire(const WakeDecision& decision) {
  AcquireResult won;

  if (decision.wake_on_free > 0) {
    std::vector<CoreId> free = table_->free_cores();
    order_candidates(free);
    unsigned need = decision.wake_on_free;
    for (CoreId c : free) {
      if (need == 0) break;
      if (table_->try_claim(c, pid_)) {
        won.claimed.push_back(c);
        --need;
      }
      // A lost CAS means another coordinator raced us to this core; we
      // simply move on — constraint 3 forbids taking non-free cores.
    }
  }

  if (decision.wake_on_reclaim > 0) {
    std::vector<CoreId> mine = table_->borrowed_home_cores(pid_);
    order_candidates(mine);
    unsigned need = decision.wake_on_reclaim;
    for (CoreId c : mine) {
      if (need == 0) break;
      if (table_->try_reclaim(c, pid_)) {
        won.reclaimed.push_back(c);
        --need;
      }
    }
  }
  return won;
}

CoordinatorStep run_coordinator_step(const CoordinatorPolicy& policy,
                                     CoordinatorDriver* driver,
                                     const DemandSnapshot& demand,
                                     unsigned num_workers, const WakeFn& wake) {
  CoordinatorStep step;
  step.snapshot = demand;
  if (driver != nullptr) {
    const DemandSnapshot cores = driver->snapshot_cores();
    step.snapshot.free_cores = cores.free_cores;
    step.snapshot.reclaimable_cores = cores.reclaimable_cores;
  } else {
    // DWS-NC: no core exchange; every sleeping worker can be woken in
    // place (the OS time-shares the cores underneath, §4.2).
    step.snapshot.free_cores = step.snapshot.sleeping_workers;
    step.snapshot.reclaimable_cores = 0;
  }
  step.decision = policy.decide(step.snapshot);
  if (step.decision.total() == 0) return step;

  if (driver != nullptr) {
    step.won = driver->acquire(step.decision);
    for (CoreId c : step.won.claimed) {
      step.woken += wake(c, WakeReason::kClaimed) ? 1 : 0;
    }
    for (CoreId c : step.won.reclaimed) {
      step.woken += wake(c, WakeReason::kReclaimed) ? 1 : 0;
    }
  } else {
    const unsigned need = step.decision.total();
    for (CoreId c = 0; c < num_workers && step.woken < need; ++c) {
      step.woken += wake(c, WakeReason::kInPlace) ? 1 : 0;
    }
  }
  return step;
}

namespace {
bool default_alive_probe(std::uint32_t os_pid) {
  // kill(pid, 0) delivers nothing but performs the existence check.
  // EPERM means "exists but not ours" — still alive. Only ESRCH (or any
  // other failure, conservatively treated as alive) clears the probe.
  if (::kill(static_cast<pid_t>(os_pid), 0) == 0) return true;
  return errno != ESRCH;
}
}  // namespace

StaleSweeper::StaleSweeper(CoreTable& table, ProgramId self,
                           unsigned stale_periods)
    : StaleSweeper(table, self, stale_periods, &default_alive_probe) {}

StaleSweeper::StaleSweeper(CoreTable& table, ProgramId self,
                           unsigned stale_periods, AliveProbe probe)
    : table_(&table),
      self_(self),
      stale_periods_(stale_periods),
      alive_(std::move(probe)) {}

StaleSweepResult StaleSweeper::sweep() {
  StaleSweepResult result;
  if (stale_periods_ == 0) return result;  // sweeping disabled
  const unsigned last = std::min(table_->registered_programs(),
                                 CoreTable::kLivenessSlots);
  if (seen_.size() < static_cast<std::size_t>(last) + 1) {
    seen_.resize(static_cast<std::size_t>(last) + 1);
  }
  for (ProgramId p = 1; p <= last; ++p) {
    if (p == self_) continue;
    const std::uint32_t os_pid = table_->liveness_os_pid(p);
    if (os_pid == 0) {
      // No liveness evidence: unbound, cleanly exited, or already swept.
      seen_[p] = Observation{};
      continue;
    }
    const std::uint64_t epoch = table_->liveness_epoch(p);
    Observation& obs = seen_[p];
    if (os_pid != obs.os_pid) {
      // The slot is bound to a different process than the one we were
      // watching (first sighting, or a rebind after the predecessor died
      // or exited). Its first epoch may collide with the predecessor's
      // last observed one, so restart the stall clock unconditionally —
      // a fresh binding deserves a full stale_periods_ budget.
      obs = Observation{epoch, os_pid, 0};
      continue;
    }
    if (epoch != obs.epoch) {  // heartbeat advanced: healthy
      obs.epoch = epoch;
      obs.stalled = 0;
      continue;
    }
    if (++obs.stalled < stale_periods_) continue;
    if (alive_(os_pid)) {
      // Stalled but the process exists (wedged, descheduled, or simply a
      // mode without a coordinator). Never sweep a live program — restart
      // the stall clock and keep watching.
      obs.stalled = 0;
      continue;
    }
    // Confirmed dead. Race other survivors for the record; the CAS winner
    // is the unique recoverer, so cores are counted exactly once.
    if (!table_->retire_liveness(p, os_pid)) continue;
    result.declared_dead.push_back(p);
    std::vector<CoreId> freed = table_->force_release_all(p);
    result.freed.insert(result.freed.end(), freed.begin(), freed.end());
  }
  return result;
}

}  // namespace dws

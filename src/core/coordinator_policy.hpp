// The coordinator's wake-up model (§3.3): from a demand snapshot
// (N_b queued tasks, N_a active workers, N_f free cores, N_r home cores
// lent to other programs) compute how many sleeping workers to wake and
// where the cores come from, honouring the paper's three constraints:
//   1. more queued tasks => more woken workers  (Eq. 1: N_w = N_b / N_a);
//   2. a program may take its own cores back when free cores run out;
//   3. a program never takes a core another program has not released.
//
// Like StealPolicy this is pure, platform-independent logic shared by the
// thread runtime and the simulator. The table-touching part (which
// concrete cores to claim/reclaim) lives in CoordinatorDriver, and
// run_coordinator_step is the whole per-period step both executors call.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/core_table.hpp"
#include "core/topology.hpp"
#include "core/types.hpp"

namespace dws {

/// Inputs to one coordinator decision (§3.3 parameters).
struct DemandSnapshot {
  std::uint64_t queued_tasks = 0;  ///< N_b across all task pools
  unsigned active_workers = 0;     ///< N_a
  unsigned free_cores = 0;         ///< N_f (system-wide)
  unsigned reclaimable_cores = 0;  ///< N_r (my home cores used by others)
  unsigned sleeping_workers = 0;   ///< how many of my workers can be woken
};

/// Output of one coordinator decision.
struct WakeDecision {
  unsigned wake_on_free = 0;     ///< workers to wake on freshly claimed cores
  unsigned wake_on_reclaim = 0;  ///< workers to wake on reclaimed home cores

  [[nodiscard]] unsigned total() const noexcept {
    return wake_on_free + wake_on_reclaim;
  }
  friend bool operator==(const WakeDecision&, const WakeDecision&) = default;
};

class CoordinatorPolicy {
 public:
  /// `reclaim`: false treats N_r as 0, so lent home cores are never taken
  /// back (the simulator's SimParams::disable_reclaim ablation).
  explicit constexpr CoordinatorPolicy(bool reclaim = true) noexcept
      : reclaim_(reclaim) {}

  /// Apply Eq. 1 and the three §3.3 cases. Nobody is woken below one
  /// queued task per active worker (§3.3: "if each worker only needs to
  /// process a few tasks on average, the coordinator will not wake up
  /// sleeping workers"). The result is additionally capped at the number
  /// of sleeping workers (we cannot wake workers that do not exist) and
  /// never wakes anyone when the backlog is empty.
  [[nodiscard]] WakeDecision decide(const DemandSnapshot& s) const noexcept;

 private:
  bool reclaim_;
};

/// Cores actually obtained by one CoordinatorDriver::acquire call.
struct AcquireResult {
  std::vector<CoreId> claimed;    ///< previously free cores now ours
  std::vector<CoreId> reclaimed;  ///< home cores taken back from borrowers

  [[nodiscard]] std::size_t total() const noexcept {
    return claimed.size() + reclaimed.size();
  }
};

/// Applies a WakeDecision against a concrete core allocation table:
/// claims `wake_on_free` free cores and reclaims up to `wake_on_reclaim`
/// home cores. Because other coordinators race on the same table, fewer
/// cores than requested may be obtained; the result is what was won.
///
/// Candidate ordering is explicit and deterministic: cores nearest the
/// program's home socket first (topology tier from `home_core`), core id
/// ascending within a tier. The paper's coordinator "randomly selects N_w
/// free cores"; the Fisher-Yates shuffle that used to implement that made
/// equally-eligible grants iteration-order-dependent — on a NUMA machine
/// it happily granted remote cores while same-socket ones sat free, and
/// any reordering of the free list silently changed who got what. Without
/// a topology the order degenerates to core id alone, which keeps
/// co-runners packing from opposite ends of their own home ranges rather
/// than interleaving at random. On a flat machine `home_core` comes
/// first (distance(c, c) is the nearest tier), then core id.
class CoordinatorDriver {
 public:
  /// With a topology, candidates are ranked by distance tier from
  /// `home_core` (the program's home-partition anchor), then core id.
  /// `topo`, when non-null, must outlive the driver.
  explicit CoordinatorDriver(CoreTable& table, ProgramId pid,
                             const Topology* topo = nullptr,
                             CoreId home_core = 0);

  /// Build the table-derived half of a demand snapshot (N_f, N_r).
  [[nodiscard]] DemandSnapshot snapshot_cores() const noexcept;

  /// Execute `decision`; on each returned core the caller should wake its
  /// sleeping worker.
  AcquireResult acquire(const WakeDecision& decision);

 private:
  /// Sort candidates by (tier from home_core_, core id) — the explicit
  /// tie-break; by id alone when no topology was given.
  void order_candidates(std::vector<CoreId>& cores) const;

  CoreTable* table_;
  ProgramId pid_;
  const Topology* topo_ = nullptr;
  CoreId home_core_ = 0;
};

// ---- The coordinator step shared by both executors ----

/// Why the step is waking the worker on a core.
enum class WakeReason : int { kClaimed, kReclaimed, kInPlace };

/// The executor's wake: wake this program's worker on `core`, returning
/// true iff it was asleep.
using WakeFn = std::function<bool(CoreId core, WakeReason reason)>;

/// The record of one coordinator step.
struct CoordinatorStep {
  DemandSnapshot snapshot;
  WakeDecision decision;
  AcquireResult won;   ///< empty for DWS-NC (no core exchange)
  unsigned woken = 0;  ///< wake calls that found a sleeper
};

/// One §3.3 coordinator step for an executor with `num_workers` workers
/// and the given demand (N_b, N_a, sleeping). N_f and N_r come from
/// `driver`; without one (DWS-NC) N_f = sleeping and N_r = 0. Then
/// decide, acquire, and wake the worker on each claimed core, then on
/// each reclaimed one; DWS-NC wakes the first sleepers in core order.
CoordinatorStep run_coordinator_step(const CoordinatorPolicy& policy,
                                     CoordinatorDriver* driver,
                                     const DemandSnapshot& demand,
                                     unsigned num_workers, const WakeFn& wake);

// ---- Crash tolerance: stale-owner sweeping ----

/// What one StaleSweeper::sweep call recovered.
struct StaleSweepResult {
  std::vector<ProgramId> declared_dead;  ///< programs this call retired
  std::vector<CoreId> freed;             ///< their cores returned to free

  [[nodiscard]] bool empty() const noexcept {
    return declared_dead.empty() && freed.empty();
  }
};

/// Detects co-runners that died without releasing their cores and returns
/// those cores to the free pool, where every survivor's demand-aware wake
/// path absorbs them (the §3.3 machinery playing out under failure).
///
/// Protocol: each program's coordinator bumps its liveness epoch in the
/// shared table every period T (CoreTable::heartbeat). A sweeper calls
/// sweep() once per period; a co-runner whose epoch has not advanced for
/// `stale_periods` consecutive calls (i.e. ~K·T of wall time) is probed
/// with kill(pid, 0). Only if the OS confirms the process is gone does the
/// sweeper race retire_liveness — the winner of that CAS (exactly one
/// among concurrent survivors) force-releases the ghost's slots.
///
/// Safety invariants:
///  * A slow-but-alive program is never swept: the kill(pid, 0) probe is
///    the authoritative confirm; the epoch stall is only a cheap filter.
///  * Programs without liveness evidence (os_pid == 0: never bound,
///    cleanly unregistered, or id beyond CoreTable::kLivenessSlots) are
///    never swept.
///  * One-active-worker-per-core holds through a forced release: the
///    recovery CAS is the same pid -> free transition as a cooperative
///    release, so it loses cleanly against any concurrent claim/reclaim.
class StaleSweeper {
 public:
  /// Probe deciding whether an OS process still exists (default:
  /// kill(pid, 0), counting EPERM as alive). Injectable for tests.
  using AliveProbe = std::function<bool(std::uint32_t os_pid)>;

  StaleSweeper(CoreTable& table, ProgramId self, unsigned stale_periods);
  StaleSweeper(CoreTable& table, ProgramId self, unsigned stale_periods,
               AliveProbe probe);

  /// Run one sweep pass. Call at most once per coordinator period; each
  /// call advances the stall clock by one period.
  StaleSweepResult sweep();

 private:
  struct Observation {
    std::uint64_t epoch = 0;
    /// Which process the stall clock below is measuring. Epochs restart at
    /// 1 per bind, so a slot rebound to a new process can present the same
    /// epoch its dead predecessor last showed; keying the stall clock on
    /// (os_pid, epoch) instead of epoch alone keeps the newcomer from
    /// inheriting the corpse's stalled count and being swept early.
    std::uint32_t os_pid = 0;
    unsigned stalled = 0;
  };

  CoreTable* table_;
  ProgramId self_;
  unsigned stale_periods_;
  AliveProbe alive_;
  std::vector<Observation> seen_;  // indexed by ProgramId
};

}  // namespace dws

// The calls dws_bench makes into the runtime: build a kernel, run one
// solo or co-run round on fresh Schedulers, and read counter deltas. Both
// the workloads and the traced run's reference legs are made of these.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/app.hpp"
#include "bench_common.hpp"
#include "core/config.hpp"
#include "core/types.hpp"
#include "runtime/scheduler.hpp"

namespace bench {

/// What every workload derives from the command line.
struct Setting {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< small inputs and few runs, for the self-check
};

/// A Table-2 kernel at the benchmark's size (kMedium, Mergesort 2^20
/// keys; kSmall under --smoke), its inputs generated from the seed.
std::unique_ptr<dws::apps::App> make_kernel(const std::string& name,
                                            const Setting& s);

/// The co-run workload's programs: Fig. 4 mixes (1,8), (2,7), (3,6) and
/// (4,5), which between them cover all eight Table-2 kernels.
std::vector<std::pair<std::string, std::string>> corun_mixes();

/// The default Config (k = nproc pinned workers, DWS) with the seed.
dws::Config bench_config(const Setting& s, dws::SchedMode mode);

/// Scheduler counters, as a snapshot or as the delta over a window.
struct Counters {
  std::uint64_t tasks = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  std::uint64_t evictions = 0;
  std::uint64_t ticks = 0;
  std::uint64_t coord_wakes = 0;
  std::uint64_t claims = 0;
  std::uint64_t reclaims = 0;
  std::uint64_t slab_allocs = 0;  ///< whole round, warm-up included
  std::uint64_t runs = 0;         ///< runs completed inside the window
  double sched_s = 0.0;           ///< window length summed over schedulers
  std::uint64_t schedulers = 0;

  Counters& operator+=(const Counters& o);
  [[nodiscard]] std::string json() const;
};

Counters snapshot(const dws::rt::Scheduler& sched);
Counters operator-(const Counters& after, const Counters& before);

/// One program's samples across rounds.
struct Slot {
  explicit Slot(std::string k) : kernel(std::move(k)) {}

  std::string kernel;
  std::vector<double> run_ms;       ///< every timed run
  std::vector<double> traced_ms;    ///< runs of traced rounds
  std::vector<double> untraced_ms;  ///< runs of untraced rounds
  std::vector<double> serial_ms;    ///< run_serial() references
  std::uint64_t window_runs = 0;    ///< runs in CPU-timed windows, untimed too
  std::uint64_t tasks_per_run = 0;  ///< from the first timed run
  unsigned verified = 0;
  unsigned failed = 0;
  std::string first_failure;
};

struct RoundResult {
  double setup_s = 0.0;    ///< inputs + Scheduler(s) + warm-ups
  double cpu_ms = 0.0;     ///< process CPU over the timed window
  double wall_ms = 0.0;    ///< wall time of that window
  std::uint64_t runs = 0;  ///< runs completed in that window, all programs
  Counters counters;
};

/// Fresh inputs and a fresh Scheduler: 2 warm-up runs, `runs` timed runs
/// (verified on every 10th and the last), then, when `serial` is set and
/// the Scheduler is gone, 3 serial reference runs. `t` is null for an
/// untraced round.
RoundResult solo_round(Slot& slot, const Setting& s, dws::SchedMode mode,
                       unsigned runs, bool serial, Tracer* t,
                       std::uint64_t parent);

/// Two programs on two Schedulers sharing one CoreTableLocal, each driven
/// by its own thread in a closed loop (the paper's Fig. 3 method): both
/// loop until each has `runs` timed runs; the one that finishes first
/// keeps running untimed so the other never runs alone.
RoundResult corun_round(Slot& a, Slot& b, const Setting& s,
                        dws::SchedMode mode, unsigned runs, bool serial,
                        Tracer* t, std::uint64_t parent);

/// The benchmark's second thread: it drives the second program of every
/// co-run and serves any other job that needs a thread besides the
/// caller. One thread serves the whole process because glibc ties a malloc
/// arena to each thread: a fresh thread per round would inherit whichever
/// arena an earlier one left, with whatever that arena still holds
/// resident, and the peak RSS would vary from run to run.
class Partner {
 public:
  Partner();
  ~Partner();
  Partner(const Partner&) = delete;
  Partner& operator=(const Partner&) = delete;

  /// Runs `there` on the partner thread and `here` on the caller, waits
  /// for both, then rethrows the first exception either one threw.
  void both(const std::function<void()>& there,
            const std::function<void()>& here);

 private:
  void loop();

  std::mutex m_;
  std::condition_variable cv_;
  std::function<void()> job_;  // guarded by m_; null when idle
  std::exception_ptr error_;   // guarded by m_
  bool stop_ = false;          // guarded by m_
  std::thread thread_;         // last: starts once the members above exist
};

/// The process's one Partner.
Partner& partner();

/// Peak resident set of this process in MiB.
double max_rss_mb();

}  // namespace bench

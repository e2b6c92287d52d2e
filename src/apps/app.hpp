// Common interface for the Table-2 benchmark applications (§4, Table 2).
//
// Every app is implemented twice:
//  1. as a real parallel kernel against the dws::rt API (this interface),
//     with a serial reference for correctness checking; and
//  2. as a simulator DagProfile (profiles.hpp) capturing the app's
//     parallelism shape for the evaluation figures.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "runtime/scheduler.hpp"

namespace dws::apps {

/// Problem-size presets. Tests use kTiny/kSmall; benches use kMedium.
enum class Scale { kTiny, kSmall, kMedium };

class App {
 public:
  virtual ~App() = default;

  /// Table-2 name, e.g. "FFT".
  [[nodiscard]] virtual const char* name() const noexcept = 0;

  /// Execute the parallel kernel once on `sched`. May be called multiple
  /// times; each call re-runs the same problem instance.
  ///
  /// Contract: a run enters the scheduler once. The caller's thread does
  /// the per-run setup, then one root task (one `sched.run`, or the one
  /// top-level parallel call that makes it) runs the whole phase loop, so
  /// every phase's parallel loop is a spawn and help-first join on a
  /// worker rather than an external submission plus a wake of the
  /// blocked caller. Buffers are allocated on the caller, before the root
  /// task, not inside it: glibc serves a worker's allocations from that
  /// worker's own arena, and kernel-sized buffers allocated on whichever
  /// worker ran the root more than doubled the process's peak RSS.
  virtual void run(rt::Scheduler& sched) = 0;

  /// Execute the serial reference implementation once (for baselines and
  /// verification). Must compute the same result as run().
  virtual void run_serial() = 0;

  /// Check the most recent run()/run_serial() result. Returns an empty
  /// string on success, else a description of the mismatch.
  [[nodiscard]] virtual std::string verify() const = 0;
};

/// Table-2 ids: p-1 .. p-8.
inline constexpr const char* kAppNames[] = {
    "FFT", "PNN", "Cholesky", "LU", "GE", "Heat", "SOR", "Mergesort"};
inline constexpr unsigned kNumApps = 8;

/// Factory: `name` is a Table-2 name (case-sensitive); returns nullptr for
/// unknown names.
std::unique_ptr<App> make_app(const std::string& name, Scale scale,
                              std::uint64_t seed = 42);

/// All eight, in Table-2 order.
std::vector<std::unique_ptr<App>> make_all_apps(Scale scale,
                                                std::uint64_t seed = 42);

}  // namespace dws::apps

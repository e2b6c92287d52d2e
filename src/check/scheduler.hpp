// Controlled-scheduler model checker for small concurrent test bodies, in
// the spirit of relacy and loom.
//
// explore() runs a user-supplied scenario many times. Each *execution*
// serializes the model threads — exactly one runs at any instant — and at
// every visible operation (each check::atomic access, check::fence,
// check::var access) consults a decision sequence to pick (a) which thread
// runs next and (b), for atomic loads, WHICH of the legally readable stores
// is returned (the weak-memory part; see atomic.hpp). Two exploration
// strategies share the machinery:
//
//  - kExhaustive: iterative-deepening DFS over the decision tree. The
//    default branch is "no preemption / read the newest visible store";
//    backtracking enumerates every alternative, with context switches away
//    from a runnable thread bounded by Options::preemption_bound (CHESS).
//  - kRandom: `iterations` executions with uniformly random decisions from
//    a seeded generator; good for larger bodies the DFS cannot exhaust.
//
// Every failure is replayable: Result::schedule is the exact decision
// sequence of the failing execution, and running again with
// Options::replay = schedule reproduces it (and its trace) deterministically.
// See docs/CHECKING.md for the memory-model assumptions.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "check/vector_clock.hpp"
#include "util/rng.hpp"

namespace dws::check {

struct Options {
  enum class Mode { kExhaustive, kRandom };
  Mode mode = Mode::kExhaustive;

  /// kExhaustive: max context switches away from a still-runnable thread
  /// per execution (forced switches at thread exit are free).
  int preemption_bound = 2;
  /// kExhaustive: stop after this many executions even if the (bounded)
  /// tree is not exhausted; Result::truncated reports which happened.
  long max_executions = 100000;

  /// kRandom: number of executions and base seed (execution i uses
  /// seed + i, so a failure is pinned to one derived seed).
  long iterations = 2000;
  std::uint64_t seed = 1;

  /// Per-execution cap on visible operations (livelock guard).
  long max_steps = 100000;

  /// Non-empty: ignore mode and run the single execution this decision
  /// string (from Result::schedule) prescribes, with tracing on.
  std::string replay;
};

struct Result {
  bool failed = false;
  long executions = 0;      ///< executions actually run
  bool truncated = false;   ///< kExhaustive hit max_executions first
  std::string message;      ///< first failure (empty if !failed)
  std::string trace;        ///< per-step event log of the failing execution
  std::string schedule;     ///< decision string replaying the failure
  std::uint64_t failing_seed = 0;  ///< kRandom: derived seed that failed
};

namespace detail {

/// Thrown to unwind a model thread when the execution is over (failure or
/// abort). Never escapes explore().
struct StopExecution {};

enum class DecisionKind { kThread, kValue };

struct Decision {
  DecisionKind kind;
  int taken;
  int num;               // alternatives at this point
  int free;              // alternatives [0, free) are not preemptions
  int preemptions_before;  // preemptions taken in the prefix up to here
};

struct ThreadState {
  VectorClock clock;        // happens-before knowledge
  VectorClock acq_pending;  // release clocks of stores read (acquire fences)
  VectorClock rel_fence;    // clock at the latest release fence
  bool has_rel_fence = false;
};

}  // namespace detail

class Scheduler;

/// The scheduler driving the current execution on this thread, or nullptr
/// outside explore(). check::atomic/var/fence route through it.
[[nodiscard]] Scheduler* current() noexcept;

/// Handle passed to the scenario setup function.
class Sim {
 public:
  explicit Sim(Scheduler* s) : sched_(s) {}
  /// Add a model thread (before any runs; at most kMaxThreads).
  void spawn(std::function<void()> body);
  /// Register a post-condition checked after all model threads finished.
  void on_exit(std::function<void()> fn);

 private:
  Scheduler* sched_;
};

/// Run `setup` once per execution; it creates the (fresh) shared state and
/// spawns the model threads. Because the scheduler serializes the model
/// threads on a real mutex, plain (uninstrumented) memory is safe to use
/// for per-thread result slots read by on_exit.
Result explore(const Options& opts, const std::function<void(Sim&)>& setup);

/// Model-checker assertion: usable from model threads, setup, and on_exit.
/// Outside explore() falls back to throwing std::logic_error.
void expect(bool cond, const char* msg);

/// For on_exit: whether model thread `tid` (1-based, in spawn order) ended
/// the execution blocked in atomic::wait. A timed wait never ends blocked:
/// when nothing else can run, it times out.
[[nodiscard]] bool ended_blocked(int tid);

class Scheduler {
 public:
  // ---- Interface used by the instrumented primitives (atomic.hpp) ----

  /// Model-thread id of the calling thread (0 = controller).
  [[nodiscard]] int current_thread() const noexcept;

  [[nodiscard]] detail::ThreadState& state(int tid) { return states_[tid]; }

  /// Scheduling point before a visible operation: may hand the token to
  /// another thread (a decision), counts steps, honours aborts.
  void schedule_point();

  /// Value decision: pick one of n alternatives (load candidates).
  int choose_value(int n);

  /// seq_cst fence: clock <-> global SC clock, both ways.
  void sc_sync(VectorClock& clock);
  /// seq_cst store or RMW: publishes into the global SC clock, acquires
  /// nothing from it.
  void sc_release(const VectorClock& clock) { sc_.join(clock); }
  /// seq_cst load: acquires from the global SC clock, publishes nothing.
  void sc_acquire(VectorClock& clock) const { clock.join(sc_); }

  /// atomic::wait: block the calling thread on `obj_id` until a notify
  /// re-enables it (throws StopExecution if the execution ends first).
  /// A `timed` block may also time out: the thread stays a candidate at
  /// every scheduling decision, after the runnable threads, and taking it
  /// while any thread is runnable counts as a preemption. Returns true on
  /// a timeout.
  bool block_on(int obj_id, bool timed = false);
  /// Re-enable one (an explored choice) or all threads blocked on `obj_id`.
  void notify(int obj_id, bool all);
  [[nodiscard]] bool blocked(int tid) const noexcept {
    return blocked_on_[tid] != 0;
  }

  /// True once this execution ended early; instrumented ops then take
  /// op_guard() and a minimal sequentialized path while threads unwind.
  [[nodiscard]] bool aborting() const noexcept { return abort_; }
  [[nodiscard]] std::unique_lock<std::mutex> op_guard();

  /// Record a failure and unwind the calling thread.
  [[noreturn]] void fail(std::string msg);

  /// Sequential id for a freshly constructed instrumented object (stable
  /// across replays, used to label trace lines).
  int next_object_id() noexcept { return ++object_ids_; }

  [[nodiscard]] bool trace_enabled() const noexcept { return trace_on_; }
  void note(const char* obj, int obj_id, const char* op, long long value,
            const char* extra = nullptr);

  [[nodiscard]] bool quiescent() const noexcept;

 private:
  friend class Sim;
  friend Result explore(const Options&, const std::function<void(Sim&)>&);

  struct ExecOutcome {
    bool failed = false;
    std::string message;
    std::vector<detail::Decision> decisions;
    std::vector<std::string> trace;
  };

  Scheduler(const Options& opts, std::vector<int> prefix, bool random,
            std::uint64_t seed, bool trace_on);

  void spawn_body(std::function<void()> body);
  void run_threads();
  void thread_main(int tid);
  int pick_next_locked(int cur);
  void pass_token_locked(int next);
  int decide(int n, detail::DecisionKind kind, int free);
  void record_failure_locked(std::string msg);

  static ExecOutcome run_one(const Options& opts, std::vector<int> prefix,
                             bool random, std::uint64_t seed, bool trace_on,
                             const std::function<void(Sim&)>& setup);

  const Options& opts_;
  std::vector<int> prefix_;
  bool random_;
  util::Xoshiro256 rng_;
  bool trace_on_;

  std::vector<std::function<void()>> bodies_;
  std::vector<std::function<void()>> exit_fns_;
  std::vector<std::thread> os_threads_;
  std::array<detail::ThreadState, kMaxThreads + 1> states_{};
  std::array<bool, kMaxThreads + 1> finished_{};
  std::array<int, kMaxThreads + 1> blocked_on_{};  // object id; 0 = runnable
  std::array<bool, kMaxThreads + 1> timed_{};      // blocked with a timeout
  int nthreads_ = 0;
  int object_ids_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  int active_ = -1;  // model thread holding the token; -2 = all done
  bool running_ = false;
  bool abort_ = false;
  bool failed_ = false;
  std::string message_;

  VectorClock sc_;  // global seq_cst clock (see atomic.hpp)

  long steps_ = 0;
  int preemptions_ = 0;
  std::size_t pos_ = 0;
  std::vector<detail::Decision> decisions_;
  std::vector<std::string> trace_;
};

}  // namespace dws::check

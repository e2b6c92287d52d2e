#include "check/scheduler.hpp"

#include <exception>
#include <stdexcept>

namespace dws::check {

namespace {

Scheduler* g_current = nullptr;
thread_local int tls_tid = 0;

std::vector<int> parse_schedule(const std::string& s) {
  std::vector<int> out;
  long v = 0;
  bool have = false;
  for (char ch : s) {
    if (ch >= '0' && ch <= '9') {
      v = v * 10 + (ch - '0');
      have = true;
    } else {
      if (have) out.push_back(static_cast<int>(v));
      v = 0;
      have = false;
    }
  }
  if (have) out.push_back(static_cast<int>(v));
  return out;
}

std::string format_schedule(const std::vector<detail::Decision>& ds) {
  std::string s;
  for (const auto& d : ds) {
    if (!s.empty()) s += ',';
    s += std::to_string(d.taken);
  }
  return s;
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string s;
  for (const auto& l : lines) {
    s += l;
    s += '\n';
  }
  return s;
}

}  // namespace

Scheduler* current() noexcept { return g_current; }

void expect(bool cond, const char* msg) {
  if (cond) return;
  if (Scheduler* s = current()) s->fail(msg);
  throw std::logic_error(msg);
}

bool ended_blocked(int tid) {
  Scheduler* s = current();
  return s != nullptr && tid >= 1 && tid <= kMaxThreads && s->blocked(tid);
}

void Sim::spawn(std::function<void()> body) {
  sched_->spawn_body(std::move(body));
}

void Sim::on_exit(std::function<void()> fn) {
  sched_->exit_fns_.push_back(std::move(fn));
}

Scheduler::Scheduler(const Options& opts, std::vector<int> prefix, bool random,
                     std::uint64_t seed, bool trace_on)
    : opts_(opts),
      prefix_(std::move(prefix)),
      random_(random),
      rng_(seed),
      trace_on_(trace_on) {}

int Scheduler::current_thread() const noexcept { return tls_tid; }

bool Scheduler::quiescent() const noexcept {
  return !running_ || tls_tid == 0;
}

void Scheduler::spawn_body(std::function<void()> body) {
  if (running_) throw std::logic_error("spawn() after threads started");
  if (nthreads_ >= kMaxThreads) {
    throw std::logic_error("too many model threads (kMaxThreads)");
  }
  const int id = ++nthreads_;
  bodies_.push_back(std::move(body));
  // Spawn edge: the child starts knowing everything the controller knows.
  auto& ctrl = states_[0];
  ctrl.clock.c[0]++;
  states_[id].clock = ctrl.clock;
  states_[id].clock.c[id] = 1;
}

void Scheduler::run_threads() {
  if (nthreads_ == 0) return;
  running_ = true;
  os_threads_.reserve(static_cast<std::size_t>(nthreads_));
  for (int i = 1; i <= nthreads_; ++i) {
    os_threads_.emplace_back([this, i] { thread_main(i); });
  }
  {
    std::unique_lock lk(mu_);
    active_ = pick_next_locked(-1);
    cv_.notify_all();
    cv_.wait(lk, [&] { return active_ == -2; });
  }
  for (auto& t : os_threads_) t.join();
  os_threads_.clear();
  running_ = false;
  // Join edge: the controller (post-conditions, destructors) sees all.
  for (int i = 1; i <= nthreads_; ++i) states_[0].clock.join(states_[i].clock);
}

void Scheduler::thread_main(int tid) {
  tls_tid = tid;
  {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return active_ == tid || abort_; });
  }
  if (!abort_) {
    try {
      bodies_[static_cast<std::size_t>(tid - 1)]();
    } catch (const detail::StopExecution&) {
    } catch (const std::exception& e) {
      std::unique_lock lk(mu_);
      record_failure_locked(
          std::string("unhandled exception in model thread: ") + e.what());
    } catch (...) {
      std::unique_lock lk(mu_);
      record_failure_locked("unhandled exception in model thread");
    }
  }
  std::unique_lock lk(mu_);
  finished_[tid] = true;
  if (trace_on_) trace_.push_back("T" + std::to_string(tid) + ": exit");
  pass_token_locked(pick_next_locked(tid));
  tls_tid = 0;
}

void Scheduler::pass_token_locked(int next) {
  if (next < 0) {
    // No thread can run: any still blocked in wait unwind, not a failure.
    for (int i = 1; i <= nthreads_; ++i) abort_ = abort_ || !finished_[i];
    next = -2;
  }
  active_ = next;
  cv_.notify_all();
}

bool Scheduler::block_on(int obj_id, bool timed) {
  std::unique_lock lk(mu_);
  const int cur = tls_tid;
  blocked_on_[cur] = obj_id;
  timed_[cur] = timed;
  pass_token_locked(pick_next_locked(cur));
  cv_.wait(lk, [&] { return active_ == cur || abort_; });
  if (abort_) {
    lk.unlock();
    throw detail::StopExecution{};
  }
  // A notify clears blocked_on_; a timeout leaves it for us to clear.
  const bool timed_out = blocked_on_[cur] != 0;
  blocked_on_[cur] = 0;
  if (timed_out && trace_on_) {
    trace_.push_back("T" + std::to_string(cur) + ": timeout");
  }
  return timed_out;
}

void Scheduler::notify(int obj_id, bool all) {
  std::unique_lock lk(mu_);
  int waiters[kMaxThreads];
  int n = 0;
  for (int i = 1; i <= nthreads_; ++i) {
    if (blocked_on_[i] == obj_id) waiters[n++] = i;
  }
  const int pick = all ? -1 : choose_value(n);
  for (int k = 0; k < n; ++k) {
    if (all || k == pick) blocked_on_[waiters[k]] = 0;
  }
}

int Scheduler::pick_next_locked(int cur) {
  // Candidate order: the current thread first (so the DFS default of 0 is
  // "no preemption"), then the others by id, then the threads in a timed
  // wait, for which being picked is a timeout.
  int cand[kMaxThreads];
  int n = 0;
  const bool cur_runnable = cur >= 1 && !finished_[cur] && !blocked(cur);
  if (cur_runnable) cand[n++] = cur;
  for (int i = 1; i <= nthreads_; ++i) {
    if (i != cur && !finished_[i] && !blocked(i)) cand[n++] = i;
  }
  const int runnable = n;
  for (int i = 1; i <= nthreads_; ++i) {
    if (!finished_[i] && blocked(i) && timed_[i]) cand[n++] = i;
  }
  if (n == 0) return -1;
  if (n == 1) return cand[0];
  // Free choices: staying on a runnable current thread, else any runnable
  // thread, else (nothing can run) any timeout.
  const int free = cur_runnable ? 1 : (runnable > 0 ? runnable : n);
  return cand[decide(n, detail::DecisionKind::kThread, free)];
}

int Scheduler::decide(int n, detail::DecisionKind kind, int free) {
  int taken;
  if (pos_ < prefix_.size()) {
    taken = prefix_[pos_];
    if (taken >= n) taken = n - 1;
    if (taken < 0) taken = 0;
  } else if (random_) {
    taken = static_cast<int>(rng_.next_below(static_cast<std::uint64_t>(n)));
  } else {
    taken = 0;
  }
  decisions_.push_back({kind, taken, n, free, preemptions_});
  if (taken >= free) ++preemptions_;
  ++pos_;
  return taken;
}

void Scheduler::schedule_point() {
  if (quiescent()) return;
  const int cur = tls_tid;
  if (abort_) {
    if (std::uncaught_exceptions() == 0) throw detail::StopExecution{};
    return;
  }
  if (++steps_ > opts_.max_steps) {
    fail("model-check step limit exceeded (livelock or runaway loop?)");
  }
  std::unique_lock lk(mu_);
  const int next = pick_next_locked(cur);
  if (next != cur) {
    if (trace_on_) trace_.push_back("-- switch to T" + std::to_string(next));
    active_ = next;
    cv_.notify_all();
    cv_.wait(lk, [&] { return active_ == cur || abort_; });
  }
  if (abort_) {
    lk.unlock();
    if (std::uncaught_exceptions() == 0) throw detail::StopExecution{};
  }
}

int Scheduler::choose_value(int n) {
  if (n <= 1) return 0;
  if (quiescent()) return n - 1;  // the controller reads the newest store
  return decide(n, detail::DecisionKind::kValue, n);
}

void Scheduler::sc_sync(VectorClock& clock) {
  clock.join(sc_);
  sc_.join(clock);
}

std::unique_lock<std::mutex> Scheduler::op_guard() {
  if (!abort_) return {};
  return std::unique_lock<std::mutex>(mu_);
}

void Scheduler::record_failure_locked(std::string msg) {
  if (!failed_) {
    failed_ = true;
    message_ = std::move(msg);
    if (trace_on_) trace_.push_back("!! FAIL: " + message_);
  }
  abort_ = true;
  cv_.notify_all();
}

void Scheduler::fail(std::string msg) {
  {
    std::unique_lock lk(mu_);
    record_failure_locked(std::move(msg));
  }
  throw detail::StopExecution{};
}

void Scheduler::note(const char* obj, int obj_id, const char* op,
                     long long value, const char* extra) {
  if (!trace_on_) return;
  std::string line = "T" + std::to_string(tls_tid) + ": " + obj + "#" +
                     std::to_string(obj_id) + "." + op + " -> " +
                     std::to_string(value);
  if (extra != nullptr) {
    line += ' ';
    line += extra;
  }
  trace_.push_back(std::move(line));
}

Scheduler::ExecOutcome Scheduler::run_one(
    const Options& opts, std::vector<int> prefix, bool random,
    std::uint64_t seed, bool trace_on,
    const std::function<void(Sim&)>& setup) {
  if (g_current != nullptr) {
    throw std::logic_error("nested explore() is not supported");
  }
  Scheduler sched(opts, std::move(prefix), random, seed, trace_on);
  // Destroy the user closures (and the shared state they own) while the
  // scheduler is still current: destructors may touch instrumented atomics.
  struct Guard {
    Scheduler* s;
    ~Guard() {
      s->bodies_.clear();
      s->exit_fns_.clear();
      g_current = nullptr;
    }
  } guard{&sched};
  g_current = &sched;
  Sim sim(&sched);
  try {
    setup(sim);
    if (!sched.failed_) sched.run_threads();
    if (!sched.failed_) {
      for (auto& f : sched.exit_fns_) {
        f();
        if (sched.failed_) break;
      }
    }
  } catch (const detail::StopExecution&) {
  }
  ExecOutcome out;
  out.failed = sched.failed_;
  out.message = sched.message_;
  out.decisions = std::move(sched.decisions_);
  out.trace = std::move(sched.trace_);
  return out;
}

Result explore(const Options& opts, const std::function<void(Sim&)>& setup) {
  Result res;

  auto finish_failure = [&](Scheduler::ExecOutcome traced,
                            std::uint64_t failing_seed) {
    res.failed = true;
    res.message = traced.message;
    res.trace = join_lines(traced.trace);
    res.schedule = format_schedule(traced.decisions);
    res.failing_seed = failing_seed;
  };

  if (!opts.replay.empty()) {
    auto out = Scheduler::run_one(opts, parse_schedule(opts.replay), false, 0,
                                  true, setup);
    res.executions = 1;
    res.failed = out.failed;
    res.message = out.message;
    res.trace = join_lines(out.trace);
    res.schedule = format_schedule(out.decisions);
    return res;
  }

  if (opts.mode == Options::Mode::kRandom) {
    for (long it = 0; it < opts.iterations; ++it) {
      const std::uint64_t seed = opts.seed + static_cast<std::uint64_t>(it);
      auto out = Scheduler::run_one(opts, {}, true, seed, false, setup);
      ++res.executions;
      if (out.failed) {
        // Deterministic re-run of the failing seed with tracing on; the
        // recorded decisions double as the replay schedule.
        finish_failure(Scheduler::run_one(opts, {}, true, seed, true, setup),
                       seed);
        return res;
      }
    }
    return res;
  }

  // Exhaustive bounded DFS over the decision tree (CHESS-style).
  std::vector<std::vector<int>> stack;
  stack.emplace_back();
  while (!stack.empty()) {
    if (res.executions >= opts.max_executions) {
      res.truncated = true;
      break;
    }
    const std::vector<int> prefix = std::move(stack.back());
    stack.pop_back();
    const std::size_t plen = prefix.size();
    auto out = Scheduler::run_one(opts, prefix, false, 0, false, setup);
    ++res.executions;
    if (out.failed) {
      std::vector<int> schedule;
      schedule.reserve(out.decisions.size());
      for (const auto& d : out.decisions) schedule.push_back(d.taken);
      finish_failure(
          Scheduler::run_one(opts, std::move(schedule), false, 0, true, setup),
          0);
      return res;
    }
    // Branch on every decision made freely (i.e. past the forced prefix).
    for (std::size_t p = out.decisions.size(); p-- > plen;) {
      const auto& d = out.decisions[p];
      for (int alt = d.taken + 1; alt < d.num; ++alt) {
        if (alt >= d.free && d.preemptions_before >= opts.preemption_bound) {
          continue;
        }
        std::vector<int> np;
        np.reserve(p + 1);
        for (std::size_t i = 0; i < p; ++i) np.push_back(out.decisions[i].taken);
        np.push_back(alt);
        stack.push_back(std::move(np));
      }
    }
  }
  return res;
}

}  // namespace dws::check

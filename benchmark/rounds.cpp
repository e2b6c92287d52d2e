#include "rounds.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <atomic>
#include <stdexcept>

#include "apps/mergesort.hpp"
#include "core/core_table.hpp"
#include "harness/mixes.hpp"
#include "util/affinity.hpp"

namespace bench {

std::unique_ptr<dws::apps::App> make_kernel(const std::string& name,
                                            const Setting& s) {
  // kMedium's 4M-key Mergesort alone would take most of a run's budget;
  // 2^20 keys keeps it comparable to the other kernels.
  if (name == "Mergesort") {
    return std::make_unique<dws::apps::MergesortApp>(
        s.smoke ? std::size_t{1} << 16 : std::size_t{1} << 20, s.seed);
  }
  auto app = dws::apps::make_app(
      name, s.smoke ? dws::apps::Scale::kSmall : dws::apps::Scale::kMedium,
      s.seed);
  if (app == nullptr) throw std::invalid_argument("unknown kernel " + name);
  return app;
}

std::vector<std::pair<std::string, std::string>> corun_mixes() {
  std::vector<std::pair<std::string, std::string>> out;
  for (std::size_t i = 0; i < 4; ++i) {
    const auto [a, b] = dws::harness::kFigureMixes[i];
    out.emplace_back(dws::harness::app_name(a), dws::harness::app_name(b));
  }
  return out;
}

dws::Config bench_config(const Setting& s, dws::SchedMode mode) {
  dws::Config cfg;
  cfg.mode = mode;
  cfg.seed = s.seed;
  return cfg;
}

Counters& Counters::operator+=(const Counters& o) {
  tasks += o.tasks;
  steal_attempts += o.steal_attempts;
  steals += o.steals;
  sleeps += o.sleeps;
  wakes += o.wakes;
  evictions += o.evictions;
  ticks += o.ticks;
  coord_wakes += o.coord_wakes;
  claims += o.claims;
  reclaims += o.reclaims;
  slab_allocs += o.slab_allocs;
  runs += o.runs;
  sched_s += o.sched_s;
  schedulers += o.schedulers;
  return *this;
}

std::string Counters::json() const {
  auto u = [](std::uint64_t v) { return std::to_string(v); };
  return "{\"tasks\":" + u(tasks) + ",\"steal_attempts\":" +
         u(steal_attempts) + ",\"steals\":" + u(steals) +
         ",\"sleeps\":" + u(sleeps) + ",\"wakes\":" + u(wakes) +
         ",\"evictions\":" + u(evictions) + ",\"ticks\":" + u(ticks) +
         ",\"coordinator_wakes\":" + u(coord_wakes) +
         ",\"claims\":" + u(claims) + ",\"reclaims\":" + u(reclaims) +
         ",\"slab_allocs\":" + u(slab_allocs) + ",\"runs\":" + u(runs) + "}";
}

Counters snapshot(const dws::rt::Scheduler& sched) {
  const dws::rt::SchedulerStats st = sched.stats();
  Counters c;
  c.tasks = st.totals.tasks_executed;
  c.steal_attempts = st.totals.steal_attempts;
  c.steals = st.totals.steals;
  c.sleeps = st.totals.sleeps;
  c.wakes = st.totals.wakes;
  c.evictions = st.totals.evictions;
  c.ticks = st.coordinator_ticks;
  c.coord_wakes = st.coordinator_wakes;
  c.claims = st.cores_claimed;
  c.reclaims = st.cores_reclaimed;
  c.slab_allocs = sched.alloc_stats().slab_allocs;
  return c;
}

Counters operator-(const Counters& after, const Counters& before) {
  Counters d;
  d.tasks = after.tasks - before.tasks;
  d.steal_attempts = after.steal_attempts - before.steal_attempts;
  d.steals = after.steals - before.steals;
  d.sleeps = after.sleeps - before.sleeps;
  d.wakes = after.wakes - before.wakes;
  d.evictions = after.evictions - before.evictions;
  d.ticks = after.ticks - before.ticks;
  d.coord_wakes = after.coord_wakes - before.coord_wakes;
  d.claims = after.claims - before.claims;
  d.reclaims = after.reclaims - before.reclaims;
  // Slabs are counted for the whole round: the warm-up is where the pool
  // reaches its high-water mark.
  d.slab_allocs = after.slab_allocs;
  d.schedulers = 1;
  return d;
}

namespace {

std::string round_attrs(const std::string& kernels, dws::SchedMode mode) {
  return "{\"programs\":" + json_string(kernels) +
         ",\"mode\":" + json_string(dws::to_string(mode)) + "}";
}

void verify(dws::apps::App& app, Slot& slot, Tracer* t,
            std::uint64_t parent) {
  const SpanScope span(t, "verify", parent,
                       "{\"kernel\":" + json_string(slot.kernel) + "}");
  ++slot.verified;
  std::string err;
  try {
    err = app.verify();
  } catch (const std::exception& e) {
    err = e.what();
  }
  if (!err.empty()) {
    ++slot.failed;
    if (slot.first_failure.empty()) slot.first_failure = err;
  }
}

/// In a traced round every other timed run is traced, so traced and
/// untraced runs see the same host and their ratio is the tracing overhead.
Tracer* run_tracer(Tracer* t, unsigned run) {
  return run % 2 == 1 ? t : nullptr;
}

void record(Slot& slot, double ms, bool traced) {
  slot.run_ms.push_back(ms);
  (traced ? slot.traced_ms : slot.untraced_ms).push_back(ms);
}

/// Serial runs per program per round. A serial run is noisier than a
/// parallel one: while the parallel kernel's median barely moves, single
/// serial runs of the same kernel vary by up to 40% on a shared host, and
/// every ratio metric divides by their median.
constexpr unsigned kSerialRuns = 3;

void serial_reference(dws::apps::App& app, Slot& slot, Tracer* t,
                      std::uint64_t parent) {
  for (unsigned i = 0; i < kSerialRuns; ++i) {
    const SpanScope span(t, "serial", parent,
                         "{\"kernel\":" + json_string(slot.kernel) + "}");
    const std::int64_t t0 = now_ns();
    app.run_serial();
    slot.serial_ms.push_back(ms_since(t0));
  }
}

/// Returns the heap freed by a finished round to the OS. Without it the
/// peak RSS depends on which allocator arenas earlier rounds' threads
/// happened to leave free memory in, not on what one round needs.
void release_round_memory() { malloc_trim(0); }

/// One program of a co-run: its closed-loop driver state.
struct Driver {
  Slot* slot;
  dws::apps::App* app;
  dws::rt::Scheduler* sched;
  unsigned timed = 0;
  std::uint64_t total = 0;
};

}  // namespace

Partner::Partner() : thread_([this] { loop(); }) {}

Partner::~Partner() {
  {
    const std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void Partner::loop() {
  std::unique_lock<std::mutex> lock(m_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || job_ != nullptr; });
    if (job_ == nullptr) return;
    lock.unlock();
    std::exception_ptr error;
    try {
      job_();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    job_ = nullptr;
    error_ = error;
    cv_.notify_all();
  }
}

void Partner::both(const std::function<void()>& there,
                   const std::function<void()>& here) {
  {
    const std::lock_guard<std::mutex> lock(m_);
    job_ = there;
    error_ = nullptr;
  }
  cv_.notify_all();
  std::exception_ptr error;
  try {
    here();
  } catch (...) {
    error = std::current_exception();
  }
  std::unique_lock<std::mutex> lock(m_);
  cv_.wait(lock, [&] { return job_ == nullptr; });
  if (error) std::rethrow_exception(error);
  if (error_) std::rethrow_exception(error_);
}

Partner& partner() {
  static Partner p;
  return p;
}

RoundResult solo_round(Slot& slot, const Setting& s, dws::SchedMode mode,
                       unsigned runs, bool serial, Tracer* t,
                       std::uint64_t parent) {
  RoundResult r;
  SpanScope round(t, "round", parent, round_attrs(slot.kernel, mode));
  const std::int64_t t0 = now_ns();
  auto app = make_kernel(slot.kernel, s);
  {
    dws::rt::Scheduler sched(bench_config(s, mode));
    {
      const SpanScope warm(t, "warmup", round.id());
      app->run(sched);
      app->run(sched);
    }
    r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;

    const Counters before = snapshot(sched);
    const std::int64_t w0 = now_ns();
    for (unsigned i = 0; i < runs; ++i) {
      Tracer* rt = run_tracer(t, i);
      const SpanScope span(rt, "run", round.id());
      const std::int64_t c0 = cpu_ns();
      const std::int64_t r0 = now_ns();
      app->run(sched);
      const double ms = ms_since(r0);
      r.cpu_ms += static_cast<double>(cpu_ns() - c0) / 1e6;
      r.wall_ms += ms;
      record(slot, ms, rt != nullptr);
      if (i == 0 && slot.tasks_per_run == 0) {
        slot.tasks_per_run = snapshot(sched).tasks - before.tasks;
      }
      if ((i + 1) % 10 == 0 || i + 1 == runs) {
        verify(*app, slot, t, round.id());
      }
    }
    r.counters = snapshot(sched) - before;
    r.counters.runs = runs;
    r.counters.sched_s = static_cast<double>(now_ns() - w0) / 1e9;
    r.runs = runs;
    slot.window_runs += runs;
  }
  if (serial) serial_reference(*app, slot, t, round.id());
  app.reset();
  release_round_memory();
  round.close("{\"programs\":" + json_string(slot.kernel) + ",\"mode\":" +
              json_string(dws::to_string(mode)) +
              ",\"setup_s\":" + num(r.setup_s) +
              ",\"counters\":" + r.counters.json() + "}");
  return r;
}

RoundResult corun_round(Slot& a, Slot& b, const Setting& s,
                        dws::SchedMode mode, unsigned runs, bool serial,
                        Tracer* t, std::uint64_t parent) {
  RoundResult r;
  const std::string pair = a.kernel + "+" + b.kernel;
  SpanScope round(t, "round", parent, round_attrs(pair, mode));
  const std::int64_t t0 = now_ns();
  auto app_a = make_kernel(a.kernel, s);
  auto app_b = make_kernel(b.kernel, s);
  {
    dws::Config cfg = bench_config(s, mode);
    cfg.num_programs = 2;
    dws::CoreTableLocal table(dws::util::hardware_cores(), 2);
    dws::rt::Scheduler sched_a(cfg, &table.table());
    dws::rt::Scheduler sched_b(cfg, &table.table());
    Driver da{&a, app_a.get(), &sched_a};
    Driver db{&b, app_b.get(), &sched_b};

    // Runs `body(db)` on the second benchmark thread and `body(da)` here.
    auto both = [&](auto body) {
      partner().both([&] { body(db); }, [&] { body(da); });
    };

    {
      const SpanScope warm(t, "warmup", round.id());
      both([](Driver& d) { d.app->run(*d.sched); });
    }
    r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;

    const Counters before_a = snapshot(sched_a);
    const Counters before_b = snapshot(sched_b);
    std::atomic<unsigned> done{0};
    const std::int64_t c0 = cpu_ns();
    const std::int64_t w0 = now_ns();
    both([&](Driver& d) {
      const Counters before = snapshot(*d.sched);
      try {
        while (done.load(std::memory_order_acquire) < 2) {
          const bool timed = d.timed < runs;
          Tracer* rt = timed ? run_tracer(t, d.timed) : t;
          const SpanScope span(rt, timed ? "run" : "untimed_run", round.id(),
                               "{\"kernel\":" + json_string(d.slot->kernel) +
                                   "}");
          const std::int64_t r0 = now_ns();
          d.app->run(*d.sched);
          const double ms = ms_since(r0);
          ++d.total;
          if (!timed) continue;
          record(*d.slot, ms, rt != nullptr);
          if (++d.timed == 1 && d.slot->tasks_per_run == 0) {
            d.slot->tasks_per_run = snapshot(*d.sched).tasks - before.tasks;
          }
          if (d.timed % 10 == 0 || d.timed == runs) {
            verify(*d.app, *d.slot, t, round.id());
          }
          if (d.timed == runs) done.fetch_add(1, std::memory_order_release);
        }
      } catch (...) {
        // Release the other driver, which would otherwise keep waiting
        // for this one to finish its timed runs.
        done.store(2, std::memory_order_release);
        throw;
      }
    });
    const double window_s = static_cast<double>(now_ns() - w0) / 1e9;
    r.cpu_ms = static_cast<double>(cpu_ns() - c0) / 1e6;
    r.wall_ms = window_s * 1e3;
    r.runs = da.total + db.total;
    a.window_runs += da.total;
    b.window_runs += db.total;

    Counters ca = snapshot(sched_a) - before_a;
    Counters cb = snapshot(sched_b) - before_b;
    ca.runs = da.total;
    cb.runs = db.total;
    ca.sched_s = cb.sched_s = window_s;
    r.counters = ca;
    r.counters += cb;
  }
  if (serial) {
    serial_reference(*app_a, a, t, round.id());
    serial_reference(*app_b, b, t, round.id());
  }
  app_a.reset();
  app_b.reset();
  release_round_memory();
  round.close("{\"programs\":" + json_string(pair) + ",\"mode\":" +
              json_string(dws::to_string(mode)) +
              ",\"setup_s\":" + num(r.setup_s) +
              ",\"counters\":" + r.counters.json() + "}");
  return r;
}

double max_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace bench

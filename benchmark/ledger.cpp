#include "ledger.hpp"

#include <atomic>
#include <stdexcept>
#include <thread>

#include "apps/app.hpp"
#include "core/coordinator_policy.hpp"
#include "core/core_table.hpp"
#include "core/topology.hpp"
#include "core/victim_order.hpp"
#include "runtime/api.hpp"
#include "runtime/deque.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_pool.hpp"
#include "runtime/worker.hpp"
#include "util/affinity.hpp"
#include "util/rng.hpp"

namespace bench {

namespace {

using dws::rt::Scheduler;

/// Median over batches of `batch()`'s elapsed nanoseconds per operation;
/// each batch call returns the nanoseconds of its timed part.
template <typename Batch>
double per_op(unsigned batches, std::size_t ops, Batch&& batch) {
  std::vector<double> xs;
  xs.reserve(batches);
  for (unsigned b = 0; b < batches; ++b) {
    xs.push_back(static_cast<double>(batch()) / static_cast<double>(ops));
  }
  return median(xs);
}

void expect(bool ok, const char* what) {
  if (!ok) throw std::runtime_error(std::string("ledger check failed: ") + what);
}

struct Sizing {
  unsigned batches;
  std::size_t ops;
  unsigned latency_samples;
  unsigned fanout_samples;
};

void deque_and_pool(const Sizing& z, Metrics& out) {
  using Deque = dws::rt::ChaseLevDeque<void*>;
  {
    Deque d(1024);
    void* item = &d;
    out.push_back({"runtime.deque.push_pop_ns", per_op(z.batches, z.ops, [&] {
                     const std::int64_t t0 = now_ns();
                     for (std::size_t i = 0; i < z.ops; ++i) {
                       d.push(item);
                       auto v = d.pop();
                       keep(v);
                     }
                     return now_ns() - t0;
                   }), "ns"});
  }
  {
    Deque d(z.ops);
    void* item = &d;
    out.push_back({"runtime.deque.steal_hit_ns", per_op(z.batches, z.ops, [&] {
                     for (std::size_t i = 0; i < z.ops; ++i) d.push(item);
                     bool all = true;
                     const std::int64_t t0 = now_ns();
                     for (std::size_t i = 0; i < z.ops; ++i) {
                       auto v = d.steal();
                       all &= v.has_value();
                     }
                     const std::int64_t ns = now_ns() - t0;
                     expect(all, "uncontended steal missed");
                     return ns;
                   }), "ns"});
    // The empty probe a DWS thief counts toward T_SLEEP.
    out.push_back({"runtime.deque.steal_miss_ns", per_op(z.batches, z.ops, [&] {
                     bool none = true;
                     const std::int64_t t0 = now_ns();
                     for (std::size_t i = 0; i < z.ops; ++i) {
                       auto v = d.steal();
                       none &= !v.has_value();
                     }
                     const std::int64_t ns = now_ns() - t0;
                     expect(none, "steal from an empty deque hit");
                     return ns;
                   }), "ns"});
  }

  using Pool = dws::rt::TaskSlabPool;
  Pool pool;
  pool.bind_owner();
  out.push_back({"runtime.task_pool.alloc_release_ns",
                 per_op(z.batches, z.ops, [&] {
                   const std::int64_t t0 = now_ns();
                   for (std::size_t i = 0; i < z.ops; ++i) {
                     Pool::Slot* slot = pool.allocate();
                     keep(slot);
                     Pool::release(slot);
                   }
                   return now_ns() - t0;
                 }), "ns"});
  // A thief returning a slot it ran: the Treiber push onto the owner's
  // remote chain, timed on the second benchmark thread.
  std::vector<Pool::Slot*> slots(z.ops);
  out.push_back({"runtime.task_pool.remote_release_ns",
                 per_op(z.batches, z.ops, [&] {
                   for (auto& slot : slots) slot = pool.allocate();
                   std::int64_t ns = 0;
                   partner().both(
                       [&] {
                         const std::int64_t t0 = now_ns();
                         for (Pool::Slot* slot : slots) Pool::release(slot);
                         ns = now_ns() - t0;
                       },
                       [] {});
                   return ns;
                 }), "ns"});
}

void scheduler_paths(const Setting& s, const Sizing& z, Metrics& out) {
  {
    dws::Config cfg = bench_config(s, dws::SchedMode::kDws);
    cfg.num_cores = 1;
    Scheduler sched(cfg);
    out.push_back({"runtime.scheduler.spawn_wait_ns",
                   per_op(z.batches, z.ops, [&] {
                     std::int64_t ns = 0;
                     sched.run([&] {
                       dws::rt::TaskGroup group;
                       const std::int64_t t0 = now_ns();
                       for (std::size_t i = 0; i < z.ops; ++i) {
                         sched.spawn(group, [] {});
                       }
                       sched.wait(group);
                       ns = now_ns() - t0;
                     });
                     return ns;
                   }), "ns"});
  }

  Scheduler sched(bench_config(s, dws::SchedMode::kDws));
  const auto n = static_cast<std::int64_t>(z.ops);
  out.push_back({"runtime.scheduler.pfor_grain1_ns",
                 per_op(z.batches, z.ops, [&] {
                   const std::int64_t t0 = now_ns();
                   dws::rt::parallel_for(sched, 0, n, 1,
                                         [](std::int64_t, std::int64_t) {});
                   return now_ns() - t0;
                 }), "ns"});

  // Scheduler::run of an empty task on a program that has gone idle.
  std::vector<double> run_us;
  for (unsigned i = 0; i < z.latency_samples; ++i) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    const std::int64_t t0 = now_ns();
    sched.run([] {});
    run_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  out.push_back({"runtime.scheduler.external_run_us_p50",
                 quantile(run_us, 0.5), "us"});
  out.push_back({"runtime.scheduler.external_run_us_p99",
                 quantile(run_us, 0.99), "us"});

  // Fan-out: submit k spinning chunks into an idle program and time until
  // k distinct workers run one. Each chunk waits at most kGiveUp for the
  // others, so a worker that never wakes shows as kGiveUp, not a hang.
  constexpr std::int64_t kGiveUp = 50'000'000;
  const unsigned k = sched.num_workers();
  const std::uint64_t all = k >= 64 ? ~0ull : (1ull << k) - 1;
  std::vector<double> fan_us;
  for (unsigned i = 0; i < z.fanout_samples; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::atomic<std::uint64_t> seen{0};
    std::atomic<std::int64_t> full_at{0};
    const std::int64_t t0 = now_ns();
    auto chunk = [&] {
      const std::uint64_t bit = 1ull << (dws::rt::current_worker()->id() % 64);
      if ((seen.fetch_or(bit) | bit) == all) {
        std::int64_t none = 0;
        full_at.compare_exchange_strong(none, now_ns());
      }
      while (seen.load() != all && now_ns() - t0 < kGiveUp) {
      }
    };
    sched.run([&] {
      dws::rt::TaskGroup group;
      for (unsigned j = 1; j < k; ++j) sched.spawn(group, [&] { chunk(); });
      chunk();
      sched.wait(group);
    });
    const std::int64_t at = full_at.load();
    fan_us.push_back(static_cast<double>(at != 0 ? at - t0 : kGiveUp) / 1e3);
  }
  out.push_back({"runtime.worker.fanout_us_p50", quantile(fan_us, 0.5), "us"});
  out.push_back({"runtime.worker.fanout_us_p99", quantile(fan_us, 0.99), "us"});
}

void coordinator_and_core(const Setting& s, const Sizing& z, Metrics& out) {
  {
    // The coordinator thread must not tick while this thread does: its
    // period is pushed out of reach, and the stale sweep, whose state
    // only one ticking thread may touch, is off. tick_us therefore
    // excludes the sweep.
    dws::Config cfg = bench_config(s, dws::SchedMode::kDws);
    cfg.coordinator_period_ms = 1e9;
    cfg.stale_after_periods = 0;
    Scheduler sched(cfg);
    sched.run([] {});
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    dws::rt::Coordinator* coord = sched.coordinator();
    expect(coord != nullptr, "DWS scheduler has a coordinator");
    const std::size_t ticks = z.ops / 16;
    out.push_back({"runtime.coordinator.tick_us",
                   per_op(z.batches, ticks, [&] {
                     const std::int64_t t0 = now_ns();
                     for (std::size_t i = 0; i < ticks; ++i) coord->tick();
                     return now_ns() - t0;
                   }) / 1e3, "us"});
  }

  const unsigned k = dws::util::hardware_cores();
  dws::CoreTableLocal local(k, 2);
  dws::CoreTable& table = local.table();
  const dws::ProgramId owner = table.register_program();
  const dws::ProgramId borrower = table.register_program();
  const dws::CoreId core = 0;
  expect(table.home_of(core) == owner, "core 0 is the first program's home");
  out.push_back({"core.core_table.claim_release_ns",
                 per_op(z.batches, z.ops, [&] {
                   bool ok = true;
                   const std::int64_t t0 = now_ns();
                   for (std::size_t i = 0; i < z.ops; ++i) {
                     ok &= table.try_claim(core, owner);
                     ok &= table.release(core, owner);
                   }
                   const std::int64_t ns = now_ns() - t0;
                   expect(ok, "claim/release of a free core");
                   return ns;
                 }), "ns"});
  // One borrow -> reclaim -> release cycle of a home core.
  out.push_back({"core.core_table.reclaim_ns", per_op(z.batches, z.ops, [&] {
                   bool ok = true;
                   const std::int64_t t0 = now_ns();
                   for (std::size_t i = 0; i < z.ops; ++i) {
                     ok &= table.try_claim(core, borrower);
                     ok &= table.try_reclaim(core, owner);
                     ok &= table.release(core, owner);
                   }
                   const std::int64_t ns = now_ns() - t0;
                   expect(ok, "borrow/reclaim/release cycle");
                   return ns;
                 }), "ns"});
  out.push_back({"core.core_table.snapshot_ns", per_op(z.batches, z.ops, [&] {
                   std::uint64_t acc = 0;
                   const std::int64_t t0 = now_ns();
                   for (std::size_t i = 0; i < z.ops; ++i) {
                     acc += table.count_free() +
                            table.count_borrowed_from(owner);
                   }
                   keep(acc);
                   return now_ns() - t0;
                 }), "ns"});

  dws::util::Xoshiro256 rng(s.seed);
  std::vector<dws::DemandSnapshot> snaps(256);
  for (auto& d : snaps) {
    d.queued_tasks = rng.next_below(64);
    d.active_workers = static_cast<unsigned>(rng.next_below(k + 1));
    d.free_cores = static_cast<unsigned>(rng.next_below(k + 1));
    d.reclaimable_cores = static_cast<unsigned>(rng.next_below(k + 1));
    d.sleeping_workers = static_cast<unsigned>(rng.next_below(k + 1));
  }
  const dws::CoordinatorPolicy policy;
  out.push_back({"core.coordinator_policy.decide_ns",
                 per_op(z.batches, z.ops, [&] {
                   std::uint64_t acc = 0;
                   const std::int64_t t0 = now_ns();
                   for (std::size_t i = 0; i < z.ops; ++i) {
                     acc += policy.decide(snaps[i & 255]).total();
                   }
                   keep(acc);
                   return now_ns() - t0;
                 }), "ns"});

  dws::TieredVictimOrder order(dws::Topology::synthetic(k, 1), 0, k);
  out.push_back({"core.victim_order.next_ns", per_op(z.batches, z.ops, [&] {
                   std::uint64_t acc = 0;
                   const std::int64_t t0 = now_ns();
                   for (std::size_t i = 0; i < z.ops; ++i) {
                     acc += order.next(rng).victim;
                   }
                   keep(acc);
                   return now_ns() - t0;
                 }), "ns"});
}

void note_checks(const Slot& slot, LedgerChecks& checks) {
  checks.attempted += slot.verified;
  checks.failed += slot.failed;
  if (slot.failed > 0) {
    checks.failures.push_back(slot.kernel + ": " + slot.first_failure);
  }
}

}  // namespace

void micro_ledger(const Setting& s, Metrics& out, Tracer* t,
                  std::uint64_t parent) {
  const SpanScope span(t, "ledger.micro", parent);
  const Sizing z = s.smoke ? Sizing{3, 1024, 50, 10}
                           : Sizing{15, std::size_t{1} << 14, 1000, 200};
  deque_and_pool(z, out);
  scheduler_paths(s, z, out);
  coordinator_and_core(s, z, out);
}

void reference_ledger(const Setting& s, Metrics& out, LedgerChecks& checks,
                      Tracer* t, std::uint64_t parent) {
  const SpanScope span(t, "ledger.reference", parent);
  const unsigned runs = s.smoke ? 3 : 30;
  const unsigned serial_runs = s.smoke ? 1 : 3;

  std::vector<double> overhead;
  std::vector<std::pair<std::string, double>> solo_dws_ms;
  for (const char* name : dws::apps::kAppNames) {
    const SpanScope ks(t, "kernel", span.id(),
                       "{\"kernel\":" + json_string(name) + "}");
    Slot dws_solo{name};
    Slot classic{name};
    solo_round(dws_solo, s, dws::SchedMode::kDws, runs, false, t, ks.id());
    solo_round(classic, s, dws::SchedMode::kClassic, runs, false, t, ks.id());
    note_checks(dws_solo, checks);
    note_checks(classic, checks);

    auto app = make_kernel(name, s);
    std::vector<double> serial;
    for (unsigned i = 0; i < serial_runs; ++i) {
      const std::int64_t t0 = now_ns();
      app->run_serial();
      serial.push_back(ms_since(t0));
    }

    const std::string key = std::string("apps.") + name;
    const double dws_ms = median(dws_solo.run_ms);
    out.push_back({key + ".serial_ms", median(serial), "ms"});
    out.push_back({key + ".run_ms_p50", dws_ms, "ms"});
    out.push_back({key + ".tasks_per_run",
                   static_cast<double>(dws_solo.tasks_per_run), "count"});
    const double ratio = dws_ms / median(classic.run_ms);
    out.push_back({std::string("runtime.coordinator.solo_overhead_ratio.") +
                       name, ratio, "x"});
    overhead.push_back(ratio);
    solo_dws_ms.emplace_back(name, dws_ms);
  }
  out.push_back({"runtime.coordinator.solo_overhead_ratio", geomean(overhead),
                 "x"});

  auto solo_of = [&](const std::string& kernel) {
    for (const auto& [name, ms] : solo_dws_ms) {
      if (name == kernel) return ms;
    }
    throw std::logic_error("no solo reference for " + kernel);
  };
  std::vector<double> vs_abp;
  std::vector<double> norm;
  for (const auto& [a, b] : corun_mixes()) {
    const SpanScope mix(t, "mix", span.id(),
                        "{\"mix\":" + json_string(a + "+" + b) + "}");
    Slot dws_a{a}, dws_b{b}, abp_a{a}, abp_b{b};
    corun_round(dws_a, dws_b, s, dws::SchedMode::kDws, runs, false, t,
                mix.id());
    corun_round(abp_a, abp_b, s, dws::SchedMode::kAbp, runs, false, t,
                mix.id());
    for (const Slot* slot : {&dws_a, &dws_b, &abp_a, &abp_b}) {
      note_checks(*slot, checks);
    }
    for (const auto& [d, abp] : {std::pair{&dws_a, &abp_a}, {&dws_b, &abp_b}}) {
      const double ratio = median(d->run_ms) / median(abp->run_ms);
      out.push_back({"runtime.coordinator.corun_vs_abp_ratio." + d->kernel,
                     ratio, "x"});
      vs_abp.push_back(ratio);
      norm.push_back(median(d->run_ms) / solo_of(d->kernel));
    }
  }
  out.push_back({"runtime.coordinator.corun_vs_abp_ratio", geomean(vs_abp),
                 "x"});
  out.push_back({"bench.corun_norm", geomean(norm), "x"});
}

}  // namespace bench

// dws-bench: the repository's end-to-end benchmark.
//
//   dws_bench --workload <solo-dc|solo-phased|corun-pairs|sim-fig4>
//             [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//             [--out DIR] [--git-rev REV]
//
// One workload per process. Every real-thread Scheduler uses the default
// Config (k = nproc pinned workers, DWS); the benchmark itself runs at
// most two threads, one closed-loop driver per program. The measurement
// phase lasts about --seconds, and at least 5 rounds per kernel (or mix).
// Each round has fresh inputs and a fresh Scheduler, so a process-level
// accident such as an unlucky memory placement is one round out of many
// rather than the whole run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 reruns the workload
// with spans recorded around every other timed run (every other pass on
// sim-fig4), then runs the layer ledger (ledger.hpp) and prints the
// per-layer metrics. The last stdout line is one JSON object {correct,
// attempted, failed, metrics}, and the exit status is 1 unless correct;
// the full result, with provenance, goes to
// DIR/<workload>-seed<N>-<trace|e2e>.json and the spans to
// DIR/<workload>-seed<N>.trace.jsonl.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/profiles.hpp"
#include "bench_common.hpp"
#include "harness/experiment.hpp"
#include "harness/mixes.hpp"
#include "ledger.hpp"
#include "rounds.hpp"
#include "sim/params.hpp"

#ifndef DWS_BENCH_BUILD_TYPE
#define DWS_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef DWS_BENCH_RACE
#define DWS_BENCH_RACE "unknown"
#endif

namespace bench {
namespace {

struct Options {
  std::string workload;
  Setting setting;
  double seconds = 20.0;
  bool trace = false;
  std::string out_dir = "build-bench/results";
  std::string git_rev = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dws_bench: " << why
            << "\nusage: dws_bench --workload "
               "<solo-dc|solo-phased|corun-pairs|sim-fig4> [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out DIR] "
               "[--git-rev REV]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) usage("unexpected argument " + key);
    key = key.substr(2);
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "smoke") {
      if (i + 1 >= argc) usage("--" + key + " needs a value");
      value = argv[++i];
    }
    try {
      if (key == "workload") {
        o.workload = value;
      } else if (key == "seed") {
        o.setting.seed = std::stoull(value);
      } else if (key == "seconds") {
        o.seconds = std::stod(value);
      } else if (key == "trace") {
        o.trace = value == "1";
      } else if (key == "smoke") {
        o.setting.smoke = true;
      } else if (key == "out") {
        o.out_dir = value;
      } else if (key == "git-rev") {
        o.git_rev = value;
      } else {
        usage("unknown option --" + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for --" + key + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.setting.seed == 0) usage("--seed must be at least 1");
  if (!(o.seconds >= 0.0)) usage("--seconds must be non-negative");
  return o;
}

// ---- Workload results ----

/// A kernel (solo), a mix (co-run) or one simulation (sim-fig4), with
/// its samples from every round.
struct Cell {
  std::string name;
  std::vector<Slot> slots;
  std::vector<double> setup_s;
  double cpu_ms = 0.0;
  double wall_ms = 0.0;  ///< wall time the CPU time was measured over
  std::uint64_t runs = 0;
  unsigned rounds = 0;
};

struct Fig4Summary {
  double norm_abp = 0.0;
  double norm_ep = 0.0;
  double norm_dws = 0.0;
  double sim_ms_p50 = 0.0;
  double solo_baselines_ms = 0.0;
};

/// Each ratio metric is the geometric mean of these samples. On real
/// threads they come from the measured runs; on sim-fig4 from the
/// simulated DWS programs of the Fig. 4 mixes.
struct Ratios {
  std::vector<double> speedup;      ///< per program: serial / run time p50
  std::vector<double> mean_vs_p50;  ///< per program: run time mean / p50
  std::vector<double> inflation;    ///< CPU time / serial-equivalent work
};

struct WorkloadResult {
  std::vector<Cell> cells;
  Counters counters;
  Ratios ratios;
  unsigned attempted = 0;
  unsigned failed = 0;
  std::vector<std::string> failures;
  double max_rss_mb = 0.0;
  Fig4Summary fig4;  ///< sim-fig4 only
  std::vector<double> host_calib_ms;  ///< one sample per round
};

void absorb(Cell& cell, const RoundResult& r, Counters& total) {
  cell.setup_s.push_back(r.setup_s);
  cell.cpu_ms += r.cpu_ms;
  cell.wall_ms += r.wall_ms;
  cell.runs += r.runs;
  ++cell.rounds;
  total += r.counters;
}

void tally_checks(WorkloadResult& wr) {
  for (const Cell& c : wr.cells) {
    for (const Slot& s : c.slots) {
      wr.attempted += s.verified;
      wr.failed += s.failed;
      if (s.failed > 0) wr.failures.push_back(s.kernel + ": " + s.first_failure);
    }
  }
}

/// Rounds every kernel (or mix) gets before the time limit is consulted:
/// with kRunsPerRound timed runs each, every program has at least 100
/// timed runs, so at least 10 samples lie beyond its p90.
constexpr unsigned kMinRounds = 5;
constexpr unsigned kRunsPerRound = 20;

/// The kernels (or mixes) take turns, one round each, until each has
/// kMinRounds rounds and --seconds have passed. Taking turns spreads every
/// kernel's rounds over the whole measurement, so a slow spell of a shared
/// host lands on all kernels alike instead of on whichever ran during it.
WorkloadResult run_real(const std::vector<std::vector<std::string>>& plan,
                        const Options& o, Tracer& tracer,
                        std::uint64_t parent) {
  const bool corun = plan.front().size() == 2;
  const unsigned runs = o.setting.smoke ? 3 : kRunsPerRound;
  const unsigned min_rounds = o.setting.smoke ? 2 : kMinRounds;
  WorkloadResult wr;
  // A kernel span brackets all of its rounds, so the spans of one
  // workload's kernels overlap in time.
  std::vector<std::uint64_t> spans;
  for (const auto& programs : plan) {
    Cell& cell = wr.cells.emplace_back();
    for (const std::string& k : programs) {
      cell.name += (cell.name.empty() ? "" : "+") + k;
      cell.slots.emplace_back(k);
    }
    spans.push_back(tracer.begin(corun ? "mix" : "kernel", parent,
                                 "{\"name\":" + json_string(cell.name) + "}"));
  }
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  Tracer* t = tracer.enabled() ? &tracer : nullptr;
  for (unsigned r = 0; r < min_rounds || now_ns() < deadline; ++r) {
    wr.host_calib_ms.push_back(host_calib_ms());
    for (std::size_t i = 0; i < wr.cells.size(); ++i) {
      Cell& cell = wr.cells[i];
      absorb(cell,
             corun ? corun_round(cell.slots[0], cell.slots[1], o.setting,
                                 dws::SchedMode::kDws, runs, true, t,
                                 spans[i])
                   : solo_round(cell.slots[0], o.setting,
                                dws::SchedMode::kDws, runs, true, t,
                                spans[i]),
             wr.counters);
    }
  }
  for (const std::uint64_t id : spans) tracer.end(id);
  for (const Cell& cell : wr.cells) {
    double serial_work_ms = 0.0;
    for (const Slot& s : cell.slots) {
      const double p50 = median(s.run_ms);
      wr.ratios.speedup.push_back(median(s.serial_ms) / p50);
      wr.ratios.mean_vs_p50.push_back(mean(s.run_ms) / p50);
      serial_work_ms +=
          static_cast<double>(s.window_runs) * median(s.serial_ms);
    }
    wr.ratios.inflation.push_back(cell.cpu_ms / serial_work_ms);
  }
  wr.max_rss_mb = max_rss_mb();
  tally_checks(wr);
  return wr;
}

// ---- sim-fig4 ----

/// One full Fig. 4: the solo baselines plus the eight mixes under ABP, EP
/// and DWS (25 simulations), each timed on its own.
struct Fig4Pass {
  double setup_s = 0.0;
  std::vector<std::string> names;
  std::vector<double> ms;
  std::vector<double> cpu_ms;
  std::vector<double> values;  ///< every simulated number, for identity
  double norm[3] = {0.0, 0.0, 0.0};
  Ratios dws;  ///< of the DWS column's programs
  Counters dws_counters;
  unsigned failed = 0;
};

constexpr unsigned kSimsPerPass = 1 + 3 * 8;

Fig4Pass fig4_pass(const Setting& s, Tracer* t, std::uint64_t parent) {
  Fig4Pass p;
  dws::harness::ExperimentConfig cfg;
  // Seed 1 is the simulator's default seed, so seed 1 reproduces
  // bench_fig4_mixes exactly.
  cfg.params.seed = dws::sim::SimParams{}.seed + (s.seed - 1);
  if (s.smoke) cfg.target_runs = cfg.baseline_runs = 1;
  SpanScope round(t, "round", parent);

  // Set-up: the eight DAG profiles, whose total work T1 is the serial
  // time the simulated speedup divides.
  std::map<std::string, double> work_us;
  {
    const SpanScope span(t, "setup", round.id());
    const std::int64_t t0 = now_ns();
    for (unsigned id = 1; id <= 8; ++id) {
      const std::string name = dws::harness::app_name(id);
      work_us[name] =
          dws::apps::make_sim_profile(name, cfg.work_scale).dag.total_work();
    }
    p.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
  }

  auto simulate = [&](const std::string& name, auto&& body) {
    const SpanScope span(t, "simulate", round.id(),
                         "{\"cell\":" + json_string(name) + "}");
    const std::int64_t c0 = cpu_ns();
    const std::int64_t t0 = now_ns();
    body();
    p.ms.push_back(ms_since(t0));
    p.cpu_ms.push_back(static_cast<double>(cpu_ns() - c0) / 1e6);
    p.names.push_back(name);
  };

  std::map<std::string, double> baselines;
  try {
    simulate("baselines",
             [&] { baselines = dws::harness::run_solo_baselines(cfg); });
  } catch (const std::exception&) {
    p.failed = kSimsPerPass;
    return p;
  }
  for (const auto& [name, us] : baselines) p.values.push_back(us);

  const dws::SchedMode modes[3] = {dws::SchedMode::kAbp, dws::SchedMode::kEp,
                                   dws::SchedMode::kDws};
  std::vector<double> norms[3];
  for (const auto& mix : dws::harness::kFigureMixes) {
    for (unsigned m = 0; m < 3; ++m) {
      dws::harness::MixRun run;
      try {
        simulate(dws::harness::mix_label(mix) + " " + to_string(modes[m]), [&] {
          run = dws::harness::run_mix(cfg, mix, modes[m], baselines);
        });
      } catch (const std::exception&) {
        ++p.failed;  // the simulation hit its time limit
        continue;
      }
      for (const auto* prog : {&run.first, &run.second}) {
        norms[m].push_back(prog->normalized);
        p.values.push_back(prog->normalized);
        if (modes[m] != dws::SchedMode::kDws) continue;
        const dws::sim::ProgramResult& r = prog->raw;
        p.dws.speedup.push_back(work_us[prog->name] / prog->mean_us);
        p.dws.mean_vs_p50.push_back(mean(r.run_times_us) /
                                    median(r.run_times_us));
        // Simulated core time (executing, stealing, migrating) over the
        // task work it completed, i.e. the simulator's CPU / serial.
        p.dws.inflation.push_back(
            (r.exec_time_us + r.steal_overhead_us + r.migration_us) /
            (r.exec_time_us - r.cache_penalty_us));
        Counters c;
        c.tasks = r.tasks_executed;
        c.steal_attempts = r.steals + r.failed_steals;
        c.steals = r.steals;
        c.sleeps = r.sleeps;
        c.wakes = r.wakes;
        c.coord_wakes = r.wakes;  // every simulated wake is the coordinator's
        c.evictions = r.evictions;
        c.ticks = r.coordinator_ticks;
        c.claims = r.cores_claimed;
        c.reclaims = r.cores_reclaimed;
        c.runs = r.run_times_us.size();
        for (double us : r.run_times_us) c.sched_s += us / 1e6;
        c.schedulers = 1;
        p.dws_counters += c;
      }
    }
  }
  for (unsigned m = 0; m < 3; ++m) p.norm[m] = geomean(norms[m]);
  round.close("{\"norm_abp\":" + num(p.norm[0]) + ",\"norm_ep\":" +
              num(p.norm[1]) + ",\"norm_dws\":" + num(p.norm[2]) +
              ",\"dws_counters\":" + p.dws_counters.json() + "}");
  return p;
}

Fig4Summary summarize(const Fig4Pass& p) {
  Fig4Summary f;
  f.norm_abp = p.norm[0];
  f.norm_ep = p.norm[1];
  f.norm_dws = p.norm[2];
  if (!p.ms.empty()) {
    f.solo_baselines_ms = p.ms.front();
    f.sim_ms_p50 = geomean(std::vector<double>(p.ms.begin() + 1, p.ms.end()));
  }
  return f;
}

/// At seed 1 the simulated Fig. 4 must read as bench_fig4_mixes prints it
/// at its defaults. The figure is deterministic, so a change that moves
/// it fails here until these values are deliberately updated.
void check_fig4_defaults(WorkloadResult& wr) {
  const double got[3] = {wr.fig4.norm_abp, wr.fig4.norm_ep, wr.fig4.norm_dws};
  const char* const want[3] = {"2.619", "1.747", "1.744"};
  std::string text[3];
  for (unsigned m = 0; m < 3; ++m) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", got[m]);
    text[m] = buf;
  }
  ++wr.attempted;
  if (text[0] != want[0] || text[1] != want[1] || text[2] != want[2]) {
    ++wr.failed;
    wr.failures.push_back("Fig. 4 geomeans ABP/EP/DWS " + text[0] + "/" +
                          text[1] + "/" + text[2] + " differ from " +
                          want[0] + "/" + want[1] + "/" + want[2]);
  }
}

WorkloadResult run_sim(const Options& o, Tracer& tracer,
                       std::uint64_t parent) {
  WorkloadResult wr;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(o.seconds * 1e9);
  Fig4Pass first;
  for (unsigned r = 0; r < kMinRounds || now_ns() < deadline; ++r) {
    // A traced run traces every other pass, so traced and untraced passes
    // see the same host and their ratio is the tracing overhead.
    Tracer* t = tracer.enabled() && r % 2 == 1 ? &tracer : nullptr;
    wr.host_calib_ms.push_back(host_calib_ms());
    Fig4Pass p = fig4_pass(o.setting, t, parent);
    wr.attempted += kSimsPerPass;
    wr.failed += p.failed;
    if (p.failed > 0) {
      wr.failures.push_back(std::to_string(p.failed) +
                            " simulations hit their time limit");
      continue;
    }
    if (wr.cells.empty()) {
      first = p;
      for (const std::string& name : p.names) {
        Cell& cell = wr.cells.emplace_back();
        cell.name = name;
        cell.slots.emplace_back(name);
      }
    } else if (p.values != first.values) {
      // The simulator is deterministic per seed: a repeat that differs
      // from the first is a failure of every simulation in it.
      wr.failed += kSimsPerPass;
      wr.failures.push_back("repeat " + std::to_string(r) +
                            " differs from the first");
      continue;
    }
    for (std::size_t i = 0; i < p.ms.size(); ++i) {
      Cell& cell = wr.cells[i];
      cell.slots[0].run_ms.push_back(p.ms[i]);
      (t != nullptr ? cell.slots[0].traced_ms : cell.slots[0].untraced_ms)
          .push_back(p.ms[i]);
      cell.cpu_ms += p.cpu_ms[i];
      cell.wall_ms += p.ms[i];
      cell.runs += 1;
      cell.rounds += 1;
    }
    wr.cells.front().setup_s.push_back(p.setup_s);
    wr.counters += p.dws_counters;
  }
  if (wr.cells.empty()) throw std::runtime_error("no simulation completed");
  wr.ratios = first.dws;
  wr.fig4 = summarize(first);
  if (o.setting.seed == 1 && !o.setting.smoke) check_fig4_defaults(wr);
  wr.max_rss_mb = max_rss_mb();
  return wr;
}

WorkloadResult run_workload(const Options& o, Tracer& tracer,
                            std::uint64_t parent) {
  if (o.workload == "solo-dc") {
    return run_real({{"FFT"}, {"PNN"}, {"Mergesort"}}, o, tracer, parent);
  }
  if (o.workload == "solo-phased") {
    return run_real({{"Cholesky"}, {"LU"}, {"GE"}, {"Heat"}, {"SOR"}}, o,
                    tracer, parent);
  }
  if (o.workload == "corun-pairs") {
    std::vector<std::vector<std::string>> plan;
    for (const auto& [a, b] : corun_mixes()) plan.push_back({a, b});
    return run_real(plan, o, tracer, parent);
  }
  if (o.workload == "sim-fig4") return run_sim(o, tracer, parent);
  usage("unknown workload " + o.workload);
}

// ---- Metrics ----

/// The workload's raw timings (for sim-fig4, of the simulations
/// themselves). They are kept in the result file but are not metrics:
/// on a shared host they drift with the host's speed.
struct Timings {
  double run_ms_p50 = 0.0;
  double run_ms_p90 = 0.0;
  double cpu_ms_per_run = 0.0;
  double busy_cores = 0.0;
};

Timings timings(const WorkloadResult& wr) {
  Timings a;
  std::vector<double> p50, p90, cpu;
  double cpu_total = 0.0, wall_total = 0.0;
  for (const Cell& c : wr.cells) {
    for (const Slot& s : c.slots) {
      p50.push_back(median(s.run_ms));
      p90.push_back(quantile(s.run_ms, 0.9));
    }
    cpu.push_back(c.cpu_ms / static_cast<double>(c.runs));
    cpu_total += c.cpu_ms;
    wall_total += c.wall_ms;
  }
  a.run_ms_p50 = geomean(p50);
  a.run_ms_p90 = geomean(p90);
  a.cpu_ms_per_run = geomean(cpu);
  a.busy_cores = cpu_total / wall_total;
  return a;
}

Metrics end_to_end(const WorkloadResult& wr) {
  double setup_s = 0.0;
  for (const Cell& c : wr.cells) {
    if (!c.setup_s.empty()) setup_s += median(c.setup_s);
  }
  return {
      {"setup_s", setup_s, "s"},
      {"speedup", geomean(wr.ratios.speedup), "x"},
      {"mean_vs_p50", geomean(wr.ratios.mean_vs_p50), "x"},
      {"cpu_vs_serial", geomean(wr.ratios.inflation), "x"},
      {"max_rss_mb", wr.max_rss_mb, "MiB"},
  };
}

double ratio(std::uint64_t num_, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num_) / static_cast<double>(den);
}

Metrics per_layer(const Options& o, const WorkloadResult& wr,
                  LedgerChecks& checks, Tracer& tracer,
                  std::uint64_t parent) {
  Metrics m;
  const Counters& c = wr.counters;
  m.push_back({"runtime.worker.steal_attempts_per_run",
               ratio(c.steal_attempts, c.runs), "count"});
  m.push_back({"runtime.worker.steal_success",
               ratio(c.steals, c.steal_attempts), "fraction"});
  m.push_back({"runtime.worker.sleeps_per_run", ratio(c.sleeps, c.runs),
               "count"});
  m.push_back({"runtime.worker.wakes_per_run", ratio(c.wakes, c.runs),
               "count"});
  m.push_back({"runtime.worker.evictions_per_run", ratio(c.evictions, c.runs),
               "count"});
  m.push_back({"runtime.worker.busy_cores", timings(wr).busy_cores,
               "cores"});
  m.push_back({"runtime.coordinator.ticks_per_s",
               c.sched_s > 0 ? static_cast<double>(c.ticks) / c.sched_s : 0.0,
               "1/s"});
  m.push_back({"runtime.coordinator.wakes_per_run",
               ratio(c.coord_wakes, c.runs), "count"});
  m.push_back({"core.core_table.claims_per_run", ratio(c.claims, c.runs),
               "count"});
  m.push_back({"core.core_table.reclaims_per_run", ratio(c.reclaims, c.runs),
               "count"});
  m.push_back({"runtime.task_pool.slab_allocs",
               ratio(c.slab_allocs, c.schedulers), "count"});

  std::vector<double> overhead;
  for (const Cell& cell : wr.cells) {
    for (const Slot& s : cell.slots) {
      overhead.push_back(median(s.traced_ms) / median(s.untraced_ms));
    }
  }
  m.push_back({"bench.trace_overhead", geomean(overhead), "x"});

  micro_ledger(o.setting, m, &tracer, parent);
  reference_ledger(o.setting, m, checks, &tracer, parent);

  Fig4Summary f = wr.fig4;
  if (o.workload != "sim-fig4") {
    const SpanScope span(&tracer, "ledger.sim", parent);
    const Fig4Pass p = fig4_pass(o.setting, &tracer, span.id());
    if (p.failed > 0) {
      checks.failed += p.failed;
      checks.failures.push_back("ledger Fig. 4 simulations hit their limit");
    }
    checks.attempted += kSimsPerPass;
    f = summarize(p);
  }
  m.push_back({"sim.engine.sim_ms_p50", f.sim_ms_p50, "ms"});
  m.push_back({"sim.engine.solo_baselines_ms", f.solo_baselines_ms, "ms"});
  m.push_back({"sim.fig4.norm_abp", f.norm_abp, "x"});
  m.push_back({"sim.fig4.norm_ep", f.norm_ep, "x"});
  m.push_back({"sim.fig4.norm_dws", f.norm_dws, "x"});
  return m;
}

// ---- Provenance and output ----

std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? "" : line.substr(start);
  }
  return "unknown";
}

/// Whether a worker thread of a default Scheduler ended up pinned to a
/// single CPU.
bool workers_pinned(const Setting& s) {
  dws::rt::Scheduler sched(bench_config(s, dws::SchedMode::kDws));
  bool pinned = false;
  sched.run([&] {
    cpu_set_t set;
    CPU_ZERO(&set);
    pinned = sched_getaffinity(0, sizeof set, &set) == 0 &&
             CPU_COUNT(&set) == 1;
  });
  return pinned;
}

std::string provenance_json(const Options& o) {
  return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
         ",\"cpus_allowed\":" +
         json_string(proc_field("/proc/self/status", "Cpus_allowed_list")) +
         ",\"workers_pinned\":" +
         (workers_pinned(o.setting) ? "true" : "false") +
         ",\"cpu_model\":" +
         json_string(proc_field("/proc/cpuinfo", "model name")) +
         ",\"build_type\":" + json_string(DWS_BENCH_BUILD_TYPE) +
         ",\"dws_race\":" + json_string(DWS_BENCH_RACE) +
         ",\"git_rev\":" + json_string(o.git_rev) +
         ",\"seed\":" + std::to_string(o.setting.seed) +
         ",\"seconds\":" + num(o.seconds) +
         ",\"smoke\":" + (o.setting.smoke ? "true" : "false") + "}";
}

std::string metrics_json(const Metrics& m, bool& finite) {
  std::string out = "{";
  for (const Metric& x : m) {
    const bool ok = std::isfinite(x.value);
    finite &= ok;
    if (out.size() > 1) out += ",";
    out += json_string(x.name) + ":{\"value\":" + num(ok ? x.value : 0.0) +
           ",\"unit\":" + json_string(x.unit) + "}";
  }
  return out + "}";
}

std::string timings_json(const Timings& a) {
  return "{\"run_ms_p50\":" + num(a.run_ms_p50) +
         ",\"run_ms_p90\":" + num(a.run_ms_p90) +
         ",\"cpu_ms_per_run\":" + num(a.cpu_ms_per_run) +
         ",\"busy_cores\":" + num(a.busy_cores) + "}";
}

std::string cells_json(const WorkloadResult& wr) {
  std::string out = "[";
  for (const Cell& c : wr.cells) {
    if (out.size() > 1) out += ",";
    out += "{\"name\":" + json_string(c.name) +
           ",\"rounds\":" + std::to_string(c.rounds) +
           ",\"runs\":" + std::to_string(c.runs) +
           ",\"setup_s\":" + num(median(c.setup_s)) +
           ",\"cpu_ms_per_run\":" +
           num(c.cpu_ms / static_cast<double>(c.runs)) + ",\"programs\":[";
    for (std::size_t i = 0; i < c.slots.size(); ++i) {
      const Slot& s = c.slots[i];
      if (i > 0) out += ",";
      out += "{\"kernel\":" + json_string(s.kernel) +
             ",\"timed_runs\":" + std::to_string(s.run_ms.size()) +
             ",\"run_ms_p50\":" + num(median(s.run_ms)) +
             ",\"run_ms_p90\":" + num(quantile(s.run_ms, 0.9)) +
             ",\"serial_ms\":" + num(median(s.serial_ms)) +
             ",\"tasks_per_run\":" + std::to_string(s.tasks_per_run) +
             ",\"verified\":" + std::to_string(s.verified) +
             ",\"failed\":" + std::to_string(s.failed) + "}";
    }
    out += "]}";
  }
  return out + "]";
}

int run(const Options& o) {
  Tracer tracer(o.trace);
  const std::string workload_attrs =
      "{\"workload\":" + json_string(o.workload) +
      ",\"seed\":" + std::to_string(o.setting.seed) + "}";
  SpanScope workload(&tracer, "workload", 0, workload_attrs);
  WorkloadResult wr = run_workload(o, tracer, workload.id());
  // After the workload, so that the pinning probe's Scheduler is not part
  // of the workload's peak RSS.
  const std::string provenance = provenance_json(o);

  LedgerChecks checks;
  const Metrics metrics = o.trace
                              ? per_layer(o, wr, checks, tracer, workload.id())
                              : end_to_end(wr);
  const unsigned attempted = wr.attempted + checks.attempted;
  const unsigned failed = wr.failed + checks.failed;
  std::vector<std::string> failures = wr.failures;
  failures.insert(failures.end(), checks.failures.begin(),
                  checks.failures.end());

  bool finite = true;
  const std::string mjson = metrics_json(metrics, finite);
  const bool correct = failed == 0 && finite && attempted > 0;

  for (const Metric& x : metrics) {
    std::cout << o.workload << "  " << x.name << " = " << num(x.value) << " "
              << x.unit << "\n";
  }
  if (o.workload == "sim-fig4") {
    std::cout << o.workload << "  Fig. 4 geomean normalized time: ABP "
              << num(wr.fig4.norm_abp) << "  EP " << num(wr.fig4.norm_ep)
              << "  DWS " << num(wr.fig4.norm_dws) << "\n";
  }
  for (const std::string& f : failures) {
    std::cout << o.workload << "  FAILED: " << f << "\n";
  }

  const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.setting.seed);
  std::string failures_json = "[";
  for (const std::string& f : failures) {
    failures_json += (failures_json.size() > 1 ? "," : "") + json_string(f);
  }
  failures_json += "]";
  const std::string result =
      "{\"schema\":\"dws-bench-result-v1\",\"workload\":" +
      json_string(o.workload) + ",\"seed\":" +
      std::to_string(o.setting.seed) + ",\"trace\":" +
      (o.trace ? "true" : "false") + ",\"correct\":" +
      (correct ? "true" : "false") + ",\"attempted\":" +
      std::to_string(attempted) + ",\"failed\":" + std::to_string(failed) +
      ",\"failures\":" + failures_json + ",\"provenance\":" + provenance +
      ",\"metrics\":" + mjson + ",\"cells\":" + cells_json(wr) +
      ",\"host_calib_ms\":" + num(median(wr.host_calib_ms)) +
      ",\"timings\":" + timings_json(timings(wr)) +
      ",\"fig4\":{\"norm_abp\":" + num(wr.fig4.norm_abp) +
      ",\"norm_ep\":" + num(wr.fig4.norm_ep) +
      ",\"norm_dws\":" + num(wr.fig4.norm_dws) + "}}";
  const std::string result_path = stem + (o.trace ? "-trace" : "-e2e") + ".json";
  std::error_code ignored;  // a failure shows as the write failing below
  std::filesystem::create_directories(o.out_dir, ignored);
  if (std::ofstream f(result_path); f) {
    f << result << "\n";
  } else {
    std::cerr << "dws_bench: cannot write " << result_path << "\n";
  }
  workload.close(workload_attrs);
  if (o.trace && !tracer.write_jsonl(stem + ".trace.jsonl")) {
    std::cerr << "dws_bench: cannot write " << stem << ".trace.jsonl\n";
  }

  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":" << mjson << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace bench

int main(int argc, char** argv) {
  const bench::Options o = bench::parse(argc, argv);
  try {
    return bench::run(o);
  } catch (const std::exception& e) {
    std::cerr << "dws_bench: " << e.what() << "\n";
    return 1;
  }
}

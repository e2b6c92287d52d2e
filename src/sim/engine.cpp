#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "core/victim_order.hpp"

namespace dws::sim {

namespace {
constexpr double kEps = 1e-9;
constexpr unsigned kNoWorker = 0xFFFFFFFFu;
}  // namespace

const ProgramResult& SimResult::program(const std::string& name) const {
  for (const auto& p : programs) {
    if (p.name == name) return p;
  }
  throw std::out_of_range("no program named " + name);
}

struct SimEngine::Impl {
  // ---- static configuration ----
  SimParams params;
  std::vector<SimProgramSpec> specs;
  unsigned k = 0;  // cores
  unsigned m = 0;  // programs

  // ---- shared core allocation table (real implementation) ----
  std::unique_ptr<CoreTableLocal> table_storage;
  CoreTable* table = nullptr;

  // ---- simulated entities ----
  enum class WState : int { kRunnable, kRunning, kSleeping, kWaking, kParked };
  enum class Op : int { kNone, kPop, kSteal, kMigrate, kExec };

  struct WorkerSt {
    unsigned prog = 0;   // program index (0-based)
    CoreId core = 0;
    WState st = WState::kRunnable;
    std::deque<NodeId> pool;  // back = bottom (owner end), front = top
    StealPolicy policy{SchedMode::kDws, 0};
    Op op = Op::kNone;
    double op_left = 0.0;       // remaining latency for kPop/kSteal/kMigrate
    double op_cost = 0.0;       // full planned latency of the current op
    NodeId exec_node = kNoNode;
    NodeId mig_node = kNoNode;  // stolen task in flight during kMigrate
    double exec_work_left = 0.0;  // remaining *work* (unscaled) for kExec
    double seg_slowdown = 1.0;    // cache factor of the planned segment
    // stats
    std::uint64_t tasks = 0, steals = 0, failed = 0, yields = 0, sleeps = 0,
                  wakes = 0, evictions = 0;
    std::uint64_t steals_tier[kNumDistanceTiers] = {0, 0, 0, 0};
    double exec_time = 0.0, cache_penalty = 0.0, steal_overhead = 0.0;
    double mig_time = 0.0;  // transfer cost charged on cross-tier steals
  };

  struct CoreSt {
    std::deque<unsigned> runq;  // global worker indices, FIFO
    unsigned running = kNoWorker;
    double quantum_left = 0.0;
    double seg_start = 0.0;
    double seg_len = 0.0;
    std::uint64_t epoch = 0;  // invalidates stale scheduled segments
    double busy_us = 0.0;
    double exec_us = 0.0;
    // cache bookkeeping: cumulative execution time on this core, total and
    // per program (lazy warmth decay reads the difference).
    double exec_total = 0.0;
    std::vector<double> exec_by;  // [program]
  };

  struct SocketSt {
    double exec_total = 0.0;
    std::vector<double> exec_by;  // [program]
  };

  struct ProgSt {
    SimProgramSpec spec;
    ProgramId pid = kNoProgram;  // table id (1-based)
    std::vector<std::uint32_t> base_joins;
    std::vector<std::uint32_t> join_left;
    std::uint32_t tasks_left = 0;
    unsigned runs_done = 0;
    std::vector<double> run_times;
    double run_start = 0.0;
    std::unique_ptr<CoordinatorDriver> driver;
    std::uint64_t ticks = 0, claims = 0, reclaims = 0;
    CoreId start_core = 0;
  };

  std::vector<WorkerSt> workers;  // [prog * k + core]
  std::vector<CoreSt> cores;
  std::vector<SocketSt> sockets;
  std::vector<ProgSt> progs;

  // warmth[core][prog] in [0,1], plus the foreign-time snapshot for lazy
  // decay; same pair per socket.
  std::vector<std::vector<double>> core_warmth, core_foreign_seen;
  std::vector<std::vector<double>> llc_warmth, llc_foreign_seen;

  util::Xoshiro256 rng{0};

  // Machine model shared with the coordinator drivers and the cache model.
  Topology topo;
  // Victim order of each worker slot, ranked from the slot's core.
  // Programs share them.
  std::vector<TieredVictimOrder> victim_orders;  // [slot]

  // ---- event queue ----
  enum class Ev : int { kCoreSeg, kCoordTick, kWake, kSample };
  struct Event {
    double t;
    std::uint64_t seq;
    Ev kind;
    std::uint32_t a;       // core / program / worker index
    std::uint64_t epoch;   // for kCoreSeg
    bool operator>(const Event& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::uint64_t next_seq = 0;
  double now = 0.0;
  bool finished = false;
  bool hit_limit = false;
  std::vector<TimelineSample> timeline;
  std::vector<TraceEvent> trace;
  bool trace_truncated = false;

  void emit(TraceKind kind, unsigned prog, CoreId core,
            NodeId node = kNoNode) {
    if (!params.collect_trace) return;
    if (trace.size() >= params.trace_capacity) {
      trace_truncated = true;
      return;
    }
    trace.push_back(TraceEvent{now, kind, prog, core, node});
  }

  void push_event(double t, Ev kind, std::uint32_t a, std::uint64_t epoch = 0) {
    events.push(Event{t, next_seq++, kind, a, epoch});
  }

  [[nodiscard]] unsigned widx(unsigned prog, CoreId core) const {
    return prog * k + core;
  }

  // ------------------------------------------------------------------
  Impl(const SimParams& p, std::vector<SimProgramSpec> s)
      : params(p), specs(std::move(s)) {
    k = params.num_cores;
    m = static_cast<unsigned>(specs.size());
    if (k == 0 || m == 0) throw std::invalid_argument("need cores, programs");
    if (params.num_sockets == 0) throw std::invalid_argument("need sockets");
    for (const auto& spec : specs) {
      if (spec.dag == nullptr || spec.dag->empty()) {
        throw std::invalid_argument("program '" + spec.name + "' has no DAG");
      }
      const std::string err = spec.dag->validate();
      if (!err.empty()) {
        throw std::invalid_argument("program '" + spec.name +
                                    "': invalid DAG: " + err);
      }
    }
    rng = util::Xoshiro256(params.seed);
    topo = params.topology();
    for (CoreId c = 0; c < k; ++c) victim_orders.emplace_back(topo, c, k);

    table_storage = std::make_unique<CoreTableLocal>(k, m);
    table = &table_storage->table();

    cores.resize(k);
    for (auto& c : cores) c.exec_by.assign(m, 0.0);
    sockets.resize(topo.num_sockets());
    for (auto& s2 : sockets) s2.exec_by.assign(m, 0.0);
    core_warmth.assign(k, std::vector<double>(m, 0.0));
    core_foreign_seen.assign(k, std::vector<double>(m, 0.0));
    llc_warmth.assign(topo.num_sockets(), std::vector<double>(m, 0.0));
    llc_foreign_seen.assign(topo.num_sockets(), std::vector<double>(m, 0.0));

    progs.resize(m);
    workers.resize(static_cast<std::size_t>(m) * k);

    for (unsigned pi = 0; pi < m; ++pi) {
      ProgSt& p2 = progs[pi];
      p2.spec = specs[pi];
      p2.pid = table->register_program();
      p2.base_joins = p2.spec.dag->join_counts();

      const bool shares = mode_space_shares(p2.spec.mode);
      if (shares) {
        const auto claimed = table->claim_home_cores(p2.pid);
        if (p2.spec.mode == SchedMode::kEp && claimed.empty()) {
          throw std::invalid_argument("EP program '" + p2.spec.name +
                                      "' has no home cores (m > k?)");
        }
      }
      // Start core: first home core, else round-robin fallback.
      const std::vector<CoreId> home = table->home_cores(p2.pid);
      p2.start_core = home.empty() ? pi % k : home.front();
      if (p2.spec.mode == SchedMode::kDws) {
        p2.driver = std::make_unique<CoordinatorDriver>(*table, p2.pid, &topo,
                                                        p2.start_core);
      }

      for (CoreId c = 0; c < k; ++c) {
        WorkerSt& w = workers[widx(pi, c)];
        w.prog = pi;
        w.core = c;
        w.policy = StealPolicy(p2.spec.mode, params.effective_t_sleep());
        switch (p2.spec.mode) {
          case SchedMode::kEp:
            w.st = table->home_of(c) == p2.pid ? WState::kRunnable
                                               : WState::kParked;
            break;
          case SchedMode::kDws:
            w.st = table->user_of(c) == p2.pid ? WState::kRunnable
                                               : WState::kSleeping;
            break;
          default:
            w.st = WState::kRunnable;  // CLASSIC / ABP / DWS-NC time-share
            break;
        }
        if (w.st == WState::kRunnable) cores[c].runq.push_back(widx(pi, c));
      }
    }

    // Seed each program's first run and the coordinator ticks.
    for (unsigned pi = 0; pi < m; ++pi) {
      start_run(pi, widx(pi, progs[pi].start_core));
      if (mode_sleeps(progs[pi].spec.mode)) {
        // Small stagger mimics non-identical process launch instants and
        // keeps tick ordering well-defined without tie storms.
        push_event(params.coordinator_period_us + 17.0 * pi, Ev::kCoordTick,
                   pi);
      }
    }
    for (CoreId c = 0; c < k; ++c) pick_next(c);
    if (params.timeline_sample_period_us > 0.0) {
      push_event(params.timeline_sample_period_us, Ev::kSample, 0);
    }
  }

  void on_sample() {
    TimelineSample sample;
    sample.t_us = now;
    sample.active_workers.resize(m, 0);
    for (unsigned pi = 0; pi < m; ++pi) {
      for (CoreId c = 0; c < k; ++c) {
        const WState st = workers[widx(pi, c)].st;
        if (st == WState::kRunning || st == WState::kRunnable ||
            st == WState::kWaking) {
          ++sample.active_workers[pi];
        }
      }
    }
    sample.free_cores = table->count_free();
    timeline.push_back(std::move(sample));
    push_event(now + params.timeline_sample_period_us, Ev::kSample, 0);
  }

  // ---- program run lifecycle ----

  void start_run(unsigned pi, unsigned start_worker) {
    ProgSt& p = progs[pi];
    p.join_left = p.base_joins;
    p.tasks_left = static_cast<std::uint32_t>(p.spec.dag->size());
    p.run_start = now;
    emit(TraceKind::kRunStart, pi, workers[start_worker].core);
    workers[start_worker].pool.push_back(p.spec.dag->root());
    relaunch_activation(pi);
  }

  /// Fig. 3 runs each benchmark binary repeatedly: every repetition is a
  /// fresh program *launch*, and a fresh launch performs the §3.1 initial
  /// allocation — the worker on every home core the program can take
  /// becomes active. Without this, a repetition would inherit the
  /// previous run's sleep state and pay a coordinator-latency ramp the
  /// paper's methodology never measures.
  void relaunch_activation(unsigned pi) {
    ProgSt& p = progs[pi];
    if (mode_space_shares(p.spec.mode)) {
      table->claim_home_cores(p.pid);  // free home cores only; borrowed
                                       // ones return via reclaim (§3.3)
      for (CoreId c = 0; c < k; ++c) {
        if (table->home_of(c) == p.pid && table->user_of(c) == p.pid) {
          wake_worker(widx(pi, c));
        }
      }
    } else if (p.spec.mode == SchedMode::kDwsNc) {
      // A fresh DWS-NC launch starts all k workers active (time-sharing).
      for (CoreId c = 0; c < k; ++c) {
        wake_worker(widx(pi, c));
      }
    }
  }

  void finish_run(unsigned pi, unsigned completing_worker) {
    ProgSt& p = progs[pi];
    emit(TraceKind::kRunFinish, pi, workers[completing_worker].core);
    p.run_times.push_back(now - p.run_start);
    ++p.runs_done;
    if (all_targets_met()) {
      finished = true;
      return;
    }
    // Fig. 3: programs re-run back-to-back so execution stays overlapped.
    start_run(pi, completing_worker);
  }

  [[nodiscard]] bool all_targets_met() const {
    for (const auto& p : progs) {
      if (p.runs_done < p.spec.target_runs) return false;
    }
    return true;
  }

  // ---- cache model ----

  [[nodiscard]] double mem_intensity_of(const ProgSt& p, NodeId n) const {
    const double mi = p.spec.dag->node(n).mem_intensity;
    return mi >= 0.0 ? mi : p.spec.default_mem_intensity;
  }

  /// Apply pending foreign-execution decay to warmth[idx][pi], given the
  /// cumulative counters, then return the refreshed warmth.
  static double touch_warmth(std::vector<double>& warmth,
                             std::vector<double>& foreign_seen, unsigned pi,
                             double exec_total, double exec_by_p,
                             double decay_const) {
    const double foreign_now = exec_total - exec_by_p;
    const double delta = foreign_now - foreign_seen[pi];
    if (delta > 0.0) {
      warmth[pi] *= std::exp(-delta / decay_const);
      foreign_seen[pi] = foreign_now;
    }
    return warmth[pi];
  }

  double current_slowdown(const WorkerSt& w) {
    const ProgSt& p = progs[w.prog];
    const double mi = mem_intensity_of(p, w.exec_node);
    if (mi <= 0.0) return 1.0;
    CoreSt& c = cores[w.core];
    const unsigned s = topo.socket_of(w.core);
    const double wc =
        touch_warmth(core_warmth[w.core], core_foreign_seen[w.core], w.prog,
                     c.exec_total, c.exec_by[w.prog], params.core_decay_us);
    const double ws =
        touch_warmth(llc_warmth[s], llc_foreign_seen[s], w.prog,
                     sockets[s].exec_total, sockets[s].exec_by[w.prog],
                     params.llc_decay_us);
    return 1.0 + mi * (params.core_miss_penalty * (1.0 - wc) +
                       params.llc_miss_penalty * (1.0 - ws));
  }

  void account_exec(WorkerSt& w, double elapsed) {
    CoreSt& c = cores[w.core];
    const unsigned s = topo.socket_of(w.core);
    // Decay first (so our own elapsed time is not counted as foreign),
    // then warm our own entries.
    touch_warmth(core_warmth[w.core], core_foreign_seen[w.core], w.prog,
                 c.exec_total, c.exec_by[w.prog], params.core_decay_us);
    touch_warmth(llc_warmth[s], llc_foreign_seen[s], w.prog,
                 sockets[s].exec_total, sockets[s].exec_by[w.prog],
                 params.llc_decay_us);
    core_warmth[w.core][w.prog] =
        1.0 - (1.0 - core_warmth[w.core][w.prog]) *
                  std::exp(-elapsed / params.core_warmup_us);
    llc_warmth[s][w.prog] = 1.0 - (1.0 - llc_warmth[s][w.prog]) *
                                      std::exp(-elapsed / params.llc_warmup_us);
    c.exec_total += elapsed;
    c.exec_by[w.prog] += elapsed;
    sockets[s].exec_total += elapsed;
    sockets[s].exec_by[w.prog] += elapsed;
    c.exec_us += elapsed;
    w.exec_time += elapsed;
  }

  // ---- core scheduling ----

  void pick_next(CoreId c) {
    CoreSt& core = cores[c];
    core.running = kNoWorker;
    while (!core.runq.empty()) {
      const unsigned wi = core.runq.front();
      core.runq.pop_front();
      core.running = wi;
      core.quantum_left = params.quantum_us;
      workers[wi].st = WState::kRunning;
      if (workers[wi].op == Op::kNone) {
        if (!worker_decide(wi)) {
          // Worker transitioned away (slept/parked); try the next one.
          core.running = kNoWorker;
          continue;
        }
      }
      plan_segment(c);
      return;
    }
  }

  void plan_segment(CoreId c) {
    CoreSt& core = cores[c];
    WorkerSt& w = workers[core.running];
    double dur;
    if (w.op == Op::kExec) {
      w.seg_slowdown = current_slowdown(w);
      const double wall_needed = w.exec_work_left * w.seg_slowdown;
      dur = std::min(wall_needed, params.cache_update_granularity_us);
    } else {
      dur = w.op_left;
    }
    const double seg = std::min(dur, core.quantum_left);
    core.seg_start = now;
    core.seg_len = seg;
    ++core.epoch;
    push_event(now + seg, Ev::kCoreSeg, c, core.epoch);
  }

  void preempt(CoreId c) {
    CoreSt& core = cores[c];
    const unsigned wi = core.running;
    workers[wi].st = WState::kRunnable;
    core.runq.push_back(wi);
    pick_next(c);
  }

  /// Decide the next op for worker wi (must be Running with op==kNone).
  /// Returns false when the worker transitioned away from Running
  /// (slept); the caller must then pick another worker for the core.
  bool worker_decide(unsigned wi) {
    WorkerSt& w = workers[wi];
    ProgSt& p = progs[w.prog];

    if (mode_space_shares(p.spec.mode) &&
        table->user_of(w.core) != p.pid) {
      // Our core was reclaimed (or never owned): vacate (§3.3).
      worker_sleep(wi, /*eviction=*/true);
      return false;
    }
    if (!w.pool.empty()) {
      w.op = Op::kPop;
      w.op_left = params.pop_cost_us;
      return true;
    }
    // Become a thief. One Algorithm-1 "steal attempt" is a *victim
    // sweep*, as in the runtime: probe the program's other workers
    // near-first and take from the first non-empty pool. Production
    // runtimes count steal failures the same way (TBB scans the arena;
    // BWS counts full sweeps; MIT Cilk's thieves probe at sub-microsecond
    // rate, so 16 single-victim failures span only ~20 us of real time —
    // far finer than the coordinator timescale the T_SLEEP threshold is
    // balanced against in §4.3). The sweep resolves at op completion.
    w.op = Op::kSteal;
    // Exponential backoff on sustained failure (as real thieves do):
    // keeps both the simulated machine and the simulator itself from
    // drowning in fruitless probes. With the defaults, T_SLEEP = 16
    // consecutive failed sweeps on 16 cores corresponds to ~1.35 ms of
    // sustained starvation (see SimParams::steal_backoff_cap_us).
    const double sweep_cost =
        params.steal_cost_us * static_cast<double>(k > 1 ? k - 1 : 1);
    const int fails = std::min(w.policy.failed_steals(), 40);
    const double cost = sweep_cost * std::exp2(static_cast<double>(fails / 4));
    w.op_cost = std::min(cost, params.steal_backoff_cap_us);
    w.op_left = w.op_cost;
    return true;
  }

  struct SweepResult {
    NodeId node = kNoNode;
    DistanceTier tier = DistanceTier::kVeryNear;
  };

  /// Resolve a steal sweep for worker wi: TieredVictimOrder::sweep over
  /// this program's other workers, stealing the oldest task from the first
  /// non-empty pool. Returns the node plus the victim's distance tier (for
  /// the per-tier counters and the migration charge).
  SweepResult resolve_steal_sweep(unsigned wi) {
    WorkerSt& w = workers[wi];
    SweepResult out;
    victim_orders[wi % k].sweep(rng, [&](VictimPick pick) {
      WorkerSt& victim = workers[widx(w.prog, pick.victim)];
      if (victim.pool.empty()) return false;
      out = {victim.pool.front(), pick.tier};
      victim.pool.pop_front();
      return true;
    });
    return out;
  }

  void worker_sleep(unsigned wi, bool eviction) {
    WorkerSt& w = workers[wi];
    ProgSt& p = progs[w.prog];
    w.policy.on_sleep();
    ++w.sleeps;
    if (eviction) ++w.evictions;
    w.st = WState::kSleeping;
    w.op = Op::kNone;
    emit(eviction ? TraceKind::kEvicted : TraceKind::kSleep, w.prog, w.core);
    if (mode_space_shares(p.spec.mode)) {
      table->release(w.core, p.pid);  // CAS-guarded; no-op if reclaimed
    }
  }

  void begin_exec(WorkerSt& w, NodeId node) {
    emit(TraceKind::kTaskStart, w.prog, w.core, node);
    w.policy.on_task_acquired();
    w.op = Op::kExec;
    w.exec_node = node;
    w.exec_work_left = progs[w.prog].spec.dag->node(node).work_us;
  }

  /// Handle completion of the current op of the worker running on core c.
  /// Returns false when the worker left the Running state (yield/sleep):
  /// the core has already been rescheduled.
  bool complete_op(CoreId c) {
    CoreSt& core = cores[c];
    const unsigned wi = core.running;
    WorkerSt& w = workers[wi];

    switch (w.op) {
      case Op::kPop: {
        w.op = Op::kNone;
        if (!w.pool.empty()) {
          const NodeId node = w.pool.back();  // own deque, LIFO
          w.pool.pop_back();
          begin_exec(w, node);
          return true;
        }
        // Raced empty (a thief drained us mid-pop): fall through to a
        // fresh decision (which will go steal).
        return worker_decide(wi) || (pick_next(c), false);
      }
      case Op::kSteal: {
        w.op = Op::kNone;
        w.steal_overhead += w.op_cost;
        if (const SweepResult sw = resolve_steal_sweep(wi);
            sw.node != kNoNode) {
          ++w.steals;
          ++w.steals_tier[static_cast<int>(sw.tier)];
          emit(TraceKind::kSteal, w.prog, w.core, sw.node);
          const double mig =
              params.steal_tier_migration_us[static_cast<int>(sw.tier)];
          if (mig > 0.0) {
            // The stolen task's working set crosses the interconnect
            // before execution can begin (tier-dependent NUMA cost).
            w.op = Op::kMigrate;
            w.op_cost = mig;
            w.op_left = mig;
            w.mig_node = sw.node;
            w.mig_time += mig;
            return true;
          }
          begin_exec(w, sw.node);
          return true;
        }
        ++w.failed;
        switch (w.policy.on_steal_failed()) {
          case StealOutcome::kRetry:
            return worker_decide(wi) || (pick_next(c), false);
          case StealOutcome::kYield:
            ++w.yields;
            w.st = WState::kRunnable;
            core.runq.push_back(wi);
            pick_next(c);
            return false;
          case StealOutcome::kSleep:
            worker_sleep(wi, /*eviction=*/false);
            pick_next(c);
            return false;
        }
        return true;
      }
      case Op::kMigrate: {
        // Transfer finished: the stolen task is now local; run it.
        w.op = Op::kNone;
        const NodeId node = w.mig_node;
        w.mig_node = kNoNode;
        begin_exec(w, node);
        return true;
      }
      case Op::kExec: {
        const NodeId done = w.exec_node;
        w.op = Op::kNone;
        w.exec_node = kNoNode;
        ++w.tasks;
        emit(TraceKind::kTaskFinish, w.prog, w.core, done);
        ProgSt& p = progs[w.prog];
        const DagNode& node = p.spec.dag->node(done);
        for (NodeId child : node.spawns) w.pool.push_back(child);
        if (node.continuation != kNoNode) {
          if (--p.join_left[node.continuation] == 0) {
            w.pool.push_back(node.continuation);
          }
        }
        if (--p.tasks_left == 0) {
          finish_run(w.prog, wi);
          if (finished) return true;  // engine stops; no need to continue
        }
        return worker_decide(wi) || (pick_next(c), false);
      }
      case Op::kNone:
        return true;  // nothing to complete (defensive)
    }
    return true;
  }

  // ---- event handlers ----

  /// Charge `elapsed` wall time of the running worker's current op (op
  /// progress, quantum, cache model). Returns true when the op finished.
  bool advance_running(CoreId c, double elapsed) {
    CoreSt& core = cores[c];
    WorkerSt& w = workers[core.running];
    core.quantum_left -= elapsed;
    core.busy_us += elapsed;
    if (w.op == Op::kExec) {
      w.exec_work_left -= elapsed / w.seg_slowdown;
      // Extra wall time attributable to cold caches.
      w.cache_penalty += elapsed - elapsed / w.seg_slowdown;
      account_exec(w, elapsed);
      return w.exec_work_left <= kEps;
    }
    w.op_left -= elapsed;
    return w.op_left <= kEps;
  }

  void on_core_seg(CoreId c, std::uint64_t epoch) {
    CoreSt& core = cores[c];
    if (epoch != core.epoch || core.running == kNoWorker) return;  // stale
    const bool op_done = advance_running(c, core.seg_len);

    if (!op_done) {
      // Quantum expired mid-op: preempt (op progress is retained).
      preempt(c);
      return;
    }
    if (!complete_op(c)) return;  // core already rescheduled
    if (finished) return;
    if (core.running == kNoWorker) return;  // defensive
    if (core.quantum_left <= kEps) {
      preempt(c);
    } else {
      plan_segment(c);
    }
  }

  /// N_b, N_a and sleeping workers of program pi.
  [[nodiscard]] DemandSnapshot demand_of(unsigned pi) const {
    DemandSnapshot s;
    for (CoreId c = 0; c < k; ++c) {
      const WorkerSt& w = workers[widx(pi, c)];
      s.queued_tasks += w.pool.size();
      switch (w.st) {
        case WState::kSleeping: ++s.sleeping_workers; break;
        case WState::kParked: break;
        default: ++s.active_workers; break;
      }
    }
    return s;
  }

  void on_coord_tick(unsigned pi) {
    ProgSt& p = progs[pi];
    ++p.ticks;
    // A claim or reclaim is traced before the wake it causes.
    const CoordinatorStep step = run_coordinator_step(
        p.driver.get(), demand_of(pi), k,
        [this, pi](CoreId c, WakeReason why) {
          if (why == WakeReason::kClaimed) emit(TraceKind::kClaim, pi, c);
          if (why == WakeReason::kReclaimed) emit(TraceKind::kReclaim, pi, c);
          return wake_worker(widx(pi, c));
        });
    p.claims += step.won.claimed.size();
    p.reclaims += step.won.reclaimed.size();
    push_event(now + params.coordinator_period_us, Ev::kCoordTick, pi);
  }

  /// Returns true iff the worker was asleep.
  bool wake_worker(unsigned wi) {
    WorkerSt& w = workers[wi];
    if (w.st != WState::kSleeping) return false;
    w.st = WState::kWaking;
    ++w.wakes;
    emit(TraceKind::kWake, w.prog, w.core);
    push_event(now + params.wake_latency_us, Ev::kWake, wi);
    return true;
  }

  void on_wake(unsigned wi) {
    WorkerSt& w = workers[wi];
    if (w.st != WState::kWaking) return;  // defensive
    w.st = WState::kRunnable;
    CoreSt& core = cores[w.core];
    core.runq.push_back(wi);
    if (core.running == kNoWorker) pick_next(w.core);
  }

  // ---- main loop ----

  SimResult run() {
    while (!events.empty() && !finished) {
      const Event ev = events.top();
      events.pop();
      if (ev.t > params.max_sim_time_us) {
        hit_limit = true;
        break;
      }
      now = ev.t;
      switch (ev.kind) {
        case Ev::kCoreSeg: on_core_seg(ev.a, ev.epoch); break;
        case Ev::kCoordTick: on_coord_tick(ev.a); break;
        case Ev::kWake: on_wake(ev.a); break;
        case Ev::kSample: on_sample(); break;
      }
    }
    if (!finished && !hit_limit) {
      // The event queue drained with work outstanding: a scheduling
      // deadlock (should be impossible; surfaced loudly for tests).
      throw std::logic_error("simulation deadlocked: event queue empty");
    }

    SimResult result;
    result.total_time_us = now;
    result.hit_time_limit = hit_limit;
    result.timeline = std::move(timeline);
    result.trace = std::move(trace);
    result.trace_truncated = trace_truncated;
    result.core_busy_us.reserve(k);
    result.core_exec_us.reserve(k);
    for (const auto& c : cores) {
      result.core_busy_us.push_back(c.busy_us);
      result.core_exec_us.push_back(c.exec_us);
    }
    for (unsigned pi = 0; pi < m; ++pi) {
      const ProgSt& p = progs[pi];
      ProgramResult r;
      r.name = p.spec.name;
      r.run_times_us = p.run_times;
      const unsigned n =
          std::min<unsigned>(p.spec.target_runs,
                             static_cast<unsigned>(p.run_times.size()));
      if (n > 0) {
        double sum = 0.0;
        for (unsigned i = 0; i < n; ++i) sum += p.run_times[i];
        r.mean_run_time_us = sum / n;  // Eq. 2
      }
      r.coordinator_ticks = p.ticks;
      r.cores_claimed = p.claims;
      r.cores_reclaimed = p.reclaims;
      for (CoreId c = 0; c < k; ++c) {
        const WorkerSt& w = workers[widx(pi, c)];
        r.tasks_executed += w.tasks;
        r.steals += w.steals;
        r.failed_steals += w.failed;
        r.yields += w.yields;
        r.sleeps += w.sleeps;
        r.wakes += w.wakes;
        r.evictions += w.evictions;
        r.exec_time_us += w.exec_time;
        r.cache_penalty_us += w.cache_penalty;
        r.steal_overhead_us += w.steal_overhead;
        r.migration_us += w.mig_time;
        for (unsigned t = 0; t < kNumDistanceTiers; ++t) {
          r.steals_by_tier[t] += w.steals_tier[t];
        }
      }
      result.programs.push_back(std::move(r));
    }
    return result;
  }
};

SimEngine::SimEngine(const SimParams& params, std::vector<SimProgramSpec> specs)
    : impl_(std::make_unique<Impl>(params, std::move(specs))) {}

SimEngine::~SimEngine() = default;

SimResult SimEngine::run() { return impl_->run(); }

SimResult simulate_solo(const SimParams& params, const SimProgramSpec& spec) {
  SimEngine engine(params, {spec});
  return engine.run();
}

}  // namespace dws::sim

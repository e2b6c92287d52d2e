// Co-running demo: two work-stealing programs (Scheduler instances)
// sharing one core allocation table inside a single process — the paper's
// multi-programmed scenario in miniature, with live table snapshots.
//
//   $ ./corun_demo [--cores=8] [--mode=DWS]
//
// Program A runs a bursty workload (alternating idle and wide phases);
// program B is continuously busy. Watch the core allocation change hands:
// during A's idle phases B borrows A's cores, and A reclaims them when
// its demand returns.
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>

#include "core/core_table.hpp"
#include "runtime/api.hpp"
#include "runtime/observer.hpp"
#include "runtime/scheduler.hpp"
#include "util/cli.hpp"

namespace {

std::int64_t spin(std::int64_t iters) {
  std::int64_t acc = 0;
  for (std::int64_t i = 0; i < iters; ++i) {
    acc += i ^ (acc >> 3);
    asm volatile("" : "+r"(acc));
  }
  return acc;
}

void print_table(const dws::CoreTable& table) {
  std::cout << "  core allocation: [";
  for (dws::CoreId c = 0; c < table.num_cores(); ++c) {
    const dws::ProgramId u = table.user_of(c);
    std::cout << (u == dws::kNoProgram ? '.' : static_cast<char>('0' + u));
  }
  std::cout << "]  (A=1, B=2, .=free)\n";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"cores", "csv", "mode"});
  const auto cores = static_cast<unsigned>(args.get_int("cores", 8));
  SchedMode mode = SchedMode::kDws;
  if (!parse_mode(args.get_str("mode", "DWS"), mode)) {
    std::cerr << "unknown --mode\n";
    return 1;
  }

  CoreTableLocal shared(cores, 2);
  Config cfg;
  cfg.mode = mode;
  cfg.num_cores = cores;
  cfg.num_programs = 2;
  cfg.pin_threads = false;
  cfg.coordinator_period_ms = 2.0;

  rt::Scheduler prog_a(cfg, &shared.table());
  rt::Scheduler prog_b(cfg, &shared.table());
  std::cout << "two programs on " << cores << " cores, mode "
            << to_string(mode) << "\n";
  print_table(shared.table());

  // Sample both schedulers while they co-run; optionally dumped as CSV.
  rt::Observer observer({&prog_a, &prog_b}, /*period_ms=*/2.0);
  observer.start();

  std::atomic<bool> stop_b{false};
  std::thread thread_b([&] {  // dws-lint-sanction: demo pins program B to its own OS thread to show co-running
    while (!stop_b.load(std::memory_order_acquire)) {
      rt::parallel_for_each_index(prog_b, 0, 20000, 1,
                                  [](std::int64_t) { spin(300); });
    }
  });

  for (int burst = 0; burst < 3; ++burst) {
    std::cout << "\n[A] idle phase " << burst << " — B may borrow A's cores\n";
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    print_table(shared.table());

    std::cout << "[A] burst phase " << burst
              << " — A's coordinator reclaims its cores\n";
    rt::parallel_for_each_index(prog_a, 0, 40000, 1,
                                [](std::int64_t) { spin(300); });
    print_table(shared.table());
  }

  stop_b.store(true, std::memory_order_release);
  thread_b.join();
  observer.stop();

  if (args.has("csv")) {
    const std::string path = args.get_str("csv", "corun_demo.csv");
    std::ofstream out(path);
    observer.write_csv(out);
    std::cout << "\nwrote " << observer.series(0).size()
              << " samples per program to " << path << "\n";
  }

  const auto stats_a = prog_a.stats();
  const auto stats_b = prog_b.stats();
  std::cout << "\nA: claimed " << stats_a.cores_claimed << ", reclaimed "
            << stats_a.cores_reclaimed << ", slept "
            << stats_a.totals.sleeps << " times\n"
            << "B: claimed " << stats_b.cores_claimed << ", reclaimed "
            << stats_b.cores_reclaimed << ", evicted "
            << stats_b.totals.evictions << " times\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

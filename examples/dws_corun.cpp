// dws_corun — the paper's real deployment as a CLI tool: launch any set
// of Table-2 benchmarks as *separate processes* co-running under a
// chosen scheduling mode, coordinating through a POSIX shared-memory
// core allocation table, and report per-program Fig.-3-style timings.
//
//   $ ./dws_corun --apps=FFT,Mergesort [--mode=DWS] [--cores=0]
//                 [--reps=3] [--scale=small]
//
// Each child process builds its own Scheduler against the shared table,
// runs its app `reps` times, and reports the mean per-run wall time
// (Eq. 2). With one Table-2 name per co-runner this is the closest
// runnable analogue of the paper's testbed experiment on real hardware —
// on a many-core host the DWS-vs-EP-vs-ABP comparison is meaningful; on
// a small CI host it is a functional demonstration.
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hpp"
#include "core/core_table_shm.hpp"
#include "runtime/scheduler.hpp"
#include "util/affinity.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

int child_main(const std::string& shm_name, unsigned cores, unsigned programs,
               dws::SchedMode mode, const std::string& app_name,
               dws::apps::Scale scale, int reps) {
  auto app = dws::apps::make_app(app_name, scale);
  if (app == nullptr) {
    std::cerr << "[child] unknown app " << app_name << "\n";
    return 2;
  }
  dws::CoreTableShm shm(shm_name, cores, programs);
  dws::Config cfg;
  cfg.mode = mode;
  cfg.num_cores = cores;
  cfg.num_programs = programs;
  cfg.pin_threads = true;
  dws::rt::Scheduler sched(cfg, &shm.table());

  app->run(sched);  // warm-up + correctness
  if (const std::string err = app->verify(); !err.empty()) {
    std::cerr << "[" << app_name << "] verification failed: " << err << "\n";
    return 3;
  }

  dws::util::Stopwatch sw;
  for (int i = 0; i < reps; ++i) app->run(sched);
  const double mean_ms = sw.elapsed_ms() / reps;

  const auto stats = sched.stats();
  std::ostringstream line;
  line << "[pid " << ::getpid() << "] " << app_name << " (program "
       << sched.pid() << "): " << mean_ms << " ms/run over " << reps
       << " reps; steals " << stats.totals.steals << ", sleeps "
       << stats.totals.sleeps << ", claimed " << stats.cores_claimed
       << ", reclaimed " << stats.cores_reclaimed << ", evicted "
       << stats.totals.evictions << "\n";
  std::cout << line.str() << std::flush;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dws;
  const util::CliArgs args(argc, argv);
  const auto apps_list = split_csv(args.get_str("apps", "FFT,Mergesort"));
  if (apps_list.empty()) {
    std::cerr << "--apps must name at least one Table-2 benchmark\n";
    return 1;
  }
  SchedMode mode = SchedMode::kDws;
  if (!parse_mode(args.get_str("mode", "DWS"), mode)) {
    std::cerr << "unknown --mode (" << mode_names() << ")\n";
    return 1;
  }
  auto cores = static_cast<unsigned>(args.get_int("cores", 0));
  if (cores == 0) cores = util::hardware_cores();
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string scale_name = args.get_str("scale", "small");
  const apps::Scale scale = scale_name == "tiny"    ? apps::Scale::kTiny
                            : scale_name == "medium" ? apps::Scale::kMedium
                                                     : apps::Scale::kSmall;
  const auto programs = static_cast<unsigned>(apps_list.size());
  const std::string shm_name = "/dws_corun_" + std::to_string(::getpid());

  std::cout << "co-running " << programs << " program(s) on " << cores
            << " cores under " << to_string(mode) << " (scale " << scale_name
            << ", " << reps << " reps each)" << std::endl;  // flush: children
                                                            // inherit stdio
                                                            // buffers at fork
  CoreTableShm::remove(shm_name);
  std::vector<pid_t> children;
  for (const std::string& name : apps_list) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::cerr << "fork failed: " << std::strerror(errno) << "\n";
      return 1;
    }
    if (pid == 0) {
      return child_main(shm_name, cores, programs, mode, name, scale, reps);
    }
    children.push_back(pid);
  }

  int failures = 0;
  for (pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) ++failures;
  }
  CoreTableShm::remove(shm_name);
  if (failures > 0) {
    std::cerr << failures << " program(s) failed\n";
    return 1;
  }
  std::cout << "all programs completed and verified\n";
  return 0;
}

// Compare all scheduling modes on the real pthread runtime for one
// Table-2 benchmark running solo on this host.
//
//   $ ./mode_comparison [--app=Mergesort] [--reps=3] [--scale=small]
//
// Solo on a dedicated machine, all modes should be close (§4.4) — the
// interesting columns are the steal/sleep statistics, which show how
// differently the modes get to the same answer.
#include <iostream>
#include <string>

#include "apps/app.hpp"
#include "harness/report.hpp"
#include "runtime/scheduler.hpp"
#include "util/cli.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(argc, argv, {"app", "reps", "scale"});
  const std::string app_name = args.get_str("app", "Mergesort");
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const std::string scale_name = args.get_str("scale", "small");
  const apps::Scale scale = scale_name == "tiny"    ? apps::Scale::kTiny
                            : scale_name == "medium" ? apps::Scale::kMedium
                                                     : apps::Scale::kSmall;

  auto app = apps::make_app(app_name, scale);
  if (app == nullptr) {
    std::cerr << "unknown app '" << app_name << "' (use a Table-2 name)\n";
    return 1;
  }

  std::cout << "=== " << app_name << " (" << scale_name << ") under every"
            << " mode, solo on this host ===\n\n";
  harness::Table table({"mode", "ms/run", "verified", "steals",
                        "failed steals", "yields", "sleeps", "coord wakes"});
  for (SchedMode mode : kAllModes) {
    Config cfg;
    cfg.mode = mode;
    cfg.num_cores = 0;  // host width
    cfg.pin_threads = false;
    rt::Scheduler sched(cfg);

    app->run(sched);  // warm-up + correctness check
    const std::string verdict = app->verify();

    util::Stopwatch sw;
    for (int i = 0; i < reps; ++i) app->run(sched);
    const double ms = sw.elapsed_ms() / reps;

    const auto stats = sched.stats();
    table.add_row({to_string(mode), harness::Table::num(ms, 2),
                   verdict.empty() ? "yes" : ("NO: " + verdict),
                   std::to_string(stats.totals.steals),
                   std::to_string(stats.totals.failed_steals),
                   std::to_string(stats.totals.yields),
                   std::to_string(stats.totals.sleeps),
                   std::to_string(stats.coordinator_wakes)});
  }
  table.print(std::cout);
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

// Demand-adaptivity timeline: samples each program's active worker count
// over virtual time for one mix under DWS, printing an ASCII strip chart
// of cores changing hands — the qualitative picture behind Fig. 4's
// numbers (§4.1: "the cores are adjusted among the co-running programs
// dynamically").
//
// Usage: bench_timeline [--mix-a=3] [--mix-b=8] [--runs=2]
//                       [--sample-ms=2] [--mode=DWS] [--out=<dir>]
//
// With --out, the full result (per-program records, timeline, per-core
// utilization) is also exported as CSV into the given directory.
#include <filesystem>
#include <iostream>
#include <string>

#include "apps/profiles.hpp"
#include "harness/experiment.hpp"
#include "harness/export.hpp"
#include "harness/mixes.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(
      argc, argv, {"mix-a", "mix-b", "mode", "out", "runs", "sample-ms"});
  const auto id_a = static_cast<unsigned>(args.get_int("mix-a", 3));
  const auto id_b = static_cast<unsigned>(args.get_int("mix-b", 8));
  const auto runs = static_cast<unsigned>(args.get_int("runs", 2));
  const double sample_ms = args.get_double("sample-ms", 2.0);
  SchedMode mode = SchedMode::kDws;
  if (!parse_mode(args.get_str("mode", "DWS"), mode)) {
    std::cerr << "unknown --mode\n";
    return 1;
  }

  sim::SimParams params;
  params.timeline_sample_period_us = sample_ms * 1000.0;

  const auto prof_a = apps::make_sim_profile(harness::app_name(id_a));
  const auto prof_b = apps::make_sim_profile(harness::app_name(id_b));
  sim::SimEngine engine(params, {harness::spec_for(prof_a, mode, runs),
                                 harness::spec_for(prof_b, mode, runs)});
  const sim::SimResult r = engine.run();

  std::cout << "=== Active workers over time: " << prof_a.name << " + "
            << prof_b.name << " under " << to_string(mode) << " ===\n"
            << "one row per " << sample_ms << " ms; A = " << prof_a.name
            << " active workers, B = " << prof_b.name
            << ", . = free cores (16 columns)\n\n";
  for (const auto& s : r.timeline) {
    const unsigned a = s.active_workers[0];
    const unsigned b = s.active_workers[1];
    std::string bar;
    for (unsigned i = 0; i < a && bar.size() < 16; ++i) bar += 'A';
    for (unsigned i = 0; i < b && bar.size() < 16; ++i) bar += 'B';
    while (bar.size() < 16) bar += '.';
    std::cout << harness::Table::num(s.t_us / 1000.0, 1) << "ms  [" << bar
              << "]  A=" << a << " B=" << b << " free=" << s.free_cores
              << "\n";
  }
  std::cout << "\ntotal " << r.timeline.size() << " samples over "
            << harness::Table::num(r.total_time_us / 1000.0, 1) << " ms\n";

  if (args.has("out")) {
    const std::string dir = args.get_str("out");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string stem = "timeline_" + prof_a.name + "_" + prof_b.name +
                             "_" + to_string(mode);
    if (const std::string err = harness::export_result(dir, stem, r);
        !err.empty()) {
      std::cerr << "export failed: " << err << "\n";
      return 1;
    }
    std::cout << "exported CSVs to " << dir << "/" << stem << "_*.csv\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

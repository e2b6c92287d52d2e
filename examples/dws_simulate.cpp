// dws_simulate — general simulator driver: compose any co-running scenario
// from the command line and run it on the simulated machine.
//
//   $ ./dws_simulate --programs=FFT:DWS,Mergesort:DWS [--cores=16] [--runs=3]
//               [--tsleep=-1] [--period-ms=10]
//               [--sample-ms=0] [--trace] [--out=<dir>] [--scale=1.0]
//               [--fast-cores=N --fast-speed=1.4 --slow-speed=0.7]
//
// Program syntax: NAME[:MODE] where NAME is a Table-2 benchmark and MODE
// one of CLASSIC|ABP|EP|DWS|DWS-NC (default DWS).
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "apps/profiles.hpp"
#include "harness/experiment.hpp"
#include "harness/export.hpp"
#include "harness/report.hpp"
#include "sim/engine.hpp"
#include "util/cli.hpp"

namespace {

struct ProgramArg {
  std::string app;
  dws::SchedMode mode = dws::SchedMode::kDws;
};

bool parse_program(const std::string& token, ProgramArg& out) {
  const auto colon = token.find(':');
  out.app = token.substr(0, colon);
  if (out.app.empty()) return false;
  return colon == std::string::npos ||
         dws::parse_mode(token.substr(colon + 1), out.mode);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace dws;
  const util::CliArgs args(
      argc, argv, {"cores", "fast-cores", "fast-speed", "out", "period-ms",
                   "programs", "runs", "sample-ms", "scale", "seed",
                   "slow-speed", "sockets", "trace", "tsleep"});

  std::vector<ProgramArg> program_args;
  {
    std::stringstream ss(args.get_str("programs", "FFT:DWS,Mergesort:DWS"));
    std::string token;
    while (std::getline(ss, token, ',')) {
      ProgramArg p;
      if (!parse_program(token, p)) {
        std::cerr << "bad --programs entry '" << token << "' (NAME[:MODE],"
                  << " MODE one of " << mode_names() << ")\n";
        return 1;
      }
      program_args.push_back(p);
    }
  }
  if (program_args.empty()) {
    std::cerr << "--programs must name at least one benchmark\n";
    return 1;
  }

  sim::SimParams params;
  params.num_cores = static_cast<unsigned>(args.get_int("cores", 16));
  params.num_sockets =
      static_cast<unsigned>(args.get_int("sockets", params.num_cores >= 8 ? 2 : 1));
  params.t_sleep = static_cast<int>(args.get_int("tsleep", -1));
  params.coordinator_period_us = 1000.0 * args.get_double("period-ms", 10.0);
  const double sample_ms = args.get_double("sample-ms", 0.0);
  if (sample_ms > 0.0) params.timeline_sample_period_us = sample_ms * 1000.0;
  params.collect_trace = args.get_bool("trace", false);
  params.seed = static_cast<std::uint64_t>(args.get_int("seed", 0xD5EED));
  // Asymmetric machine: --fast-cores=8 --fast-speed=1.4 --slow-speed=0.7
  if (args.has("fast-cores")) {
    const auto fast = static_cast<unsigned>(args.get_int("fast-cores", 0));
    const double fast_speed = args.get_double("fast-speed", 1.4);
    const double slow_speed = args.get_double("slow-speed", 0.7);
    params.core_speeds.assign(params.num_cores, slow_speed);
    for (unsigned c = 0; c < fast && c < params.num_cores; ++c) {
      params.core_speeds[c] = fast_speed;
    }
  }

  const double scale = args.get_double("scale", 1.0);
  const auto runs = static_cast<unsigned>(args.get_int("runs", 3));

  // Profiles must outlive the engine.
  std::vector<apps::SimAppProfile> profiles;
  std::vector<sim::SimProgramSpec> specs;
  profiles.reserve(program_args.size());
  try {
    for (std::size_t i = 0; i < program_args.size(); ++i) {
      profiles.push_back(apps::make_sim_profile(program_args[i].app, scale));
    }
  } catch (const std::invalid_argument& e) {
    std::cerr << e.what() << " (Table-2 names: FFT PNN Cholesky LU GE Heat"
              << " SOR Mergesort)\n";
    return 1;
  }
  for (std::size_t i = 0; i < program_args.size(); ++i) {
    sim::SimProgramSpec s =
        harness::spec_for(profiles[i], program_args[i].mode, runs);
    s.name += "#" + std::to_string(i);
    specs.push_back(s);
  }

  std::unique_ptr<sim::SimEngine> engine;
  try {
    engine = std::make_unique<sim::SimEngine>(params, specs);
  } catch (const std::invalid_argument& e) {
    std::cerr << "invalid simulation: " << e.what() << "\n";
    return 1;
  }
  const sim::SimResult r = engine->run();

  std::cout << "simulated " << params.num_cores << " cores / "
            << params.num_sockets << " sockets; total virtual time "
            << harness::Table::num(r.total_time_us / 1000.0, 1) << " ms"
            << (r.hit_time_limit ? "  ** HIT TIME LIMIT **" : "") << "\n\n";
  harness::Table table({"program", "mode", "ms/run", "runs", "steals",
                        "sleeps", "wakes", "claims", "reclaims",
                        "cache penalty (ms)"});
  for (std::size_t i = 0; i < r.programs.size(); ++i) {
    const auto& p = r.programs[i];
    table.add_row(
        {p.name, to_string(program_args[i].mode),
         harness::Table::num(p.mean_run_time_us / 1000.0, 2),
         std::to_string(p.run_times_us.size()), std::to_string(p.steals),
         std::to_string(p.sleeps), std::to_string(p.wakes),
         std::to_string(p.cores_claimed), std::to_string(p.cores_reclaimed),
         harness::Table::num(p.cache_penalty_us / 1000.0, 1)});
  }
  table.print(std::cout);

  if (args.has("out")) {
    const std::string dir = args.get_str("out");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (const std::string err = harness::export_result(dir, "dws_sim", r);
        !err.empty()) {
      std::cerr << "export failed: " << err << "\n";
      return 1;
    }
    std::cout << "\nexported CSVs to " << dir << "/dws_sim_*.csv\n";
    if (!r.trace.empty()) {
      std::ofstream trace_out(dir + "/dws_sim_trace.jsonl");
      sim::write_trace_jsonl(trace_out, r.trace);
      std::cout << "wrote " << r.trace.size() << " trace events to " << dir
                << "/dws_sim_trace.jsonl"
                << (r.trace_truncated ? " (truncated at capacity)" : "")
                << "\n";
    }
  }
  return r.hit_time_limit ? 2 : 0;
} catch (const std::exception& e) {
  std::cerr << e.what() << '\n';
  return 1;
}

#include "harness/experiment.hpp"

#include <stdexcept>

#include "harness/mixes.hpp"

namespace dws::harness {

sim::SimProgramSpec spec_for(const apps::SimAppProfile& profile,
                             SchedMode mode, unsigned target_runs) {
  sim::SimProgramSpec spec;
  spec.name = profile.name;
  spec.mode = mode;
  spec.dag = &profile.dag;
  spec.target_runs = target_runs;
  spec.default_mem_intensity = profile.mem_intensity;
  return spec;
}

std::map<std::string, double> run_solo_baselines(const ExperimentConfig& cfg) {
  std::map<std::string, double> out;
  for (unsigned id = 1; id <= 8; ++id) {
    const std::string name = app_name(id);
    const apps::SimAppProfile profile =
        apps::make_sim_profile(name, cfg.work_scale);
    // Solo + all cores + traditional work-stealing: with no co-runner,
    // ABP yields are free, so this is the paper's MIT-Cilk solo baseline.
    const sim::SimResult r = sim::simulate_solo(
        cfg.params, spec_for(profile, SchedMode::kAbp, cfg.baseline_runs));
    if (r.hit_time_limit) {
      throw std::runtime_error("baseline for " + name + " hit the time limit");
    }
    out[name] = r.programs[0].mean_run_time_us;
  }
  return out;
}

MixRun run_mix(const ExperimentConfig& cfg, std::pair<unsigned, unsigned> mix,
               SchedMode mode, const std::map<std::string, double>& baselines) {
  const std::string name_a = app_name(mix.first);
  const std::string name_b = app_name(mix.second);
  const apps::SimAppProfile prof_a =
      apps::make_sim_profile(name_a, cfg.work_scale);
  const apps::SimAppProfile prof_b =
      apps::make_sim_profile(name_b, cfg.work_scale);

  sim::SimEngine engine(cfg.params,
                        {spec_for(prof_a, mode, cfg.target_runs),
                         spec_for(prof_b, mode, cfg.target_runs)});
  const sim::SimResult r = engine.run();
  if (r.hit_time_limit) {
    throw std::runtime_error("mix " + mix_label(mix) + " under " +
                             to_string(mode) + " hit the time limit");
  }

  MixRun out;
  out.mode = to_string(mode);
  out.mix = mix;
  auto fill = [&](MixRun::PerProgram& slot, const std::string& name) {
    const sim::ProgramResult& pr = r.program(name);
    slot.name = name;
    slot.mean_us = pr.mean_run_time_us;
    const auto it = baselines.find(name);
    if (it == baselines.end()) {
      throw std::invalid_argument("missing baseline for " + name);
    }
    slot.normalized = pr.mean_run_time_us / it->second;
    slot.raw = pr;
  };
  fill(out.first, name_a);
  fill(out.second, name_b);
  return out;
}

double mix_total_normalized(const MixRun& run) {
  return run.first.normalized + run.second.normalized;
}

ReplicatedMix run_mix_replicated(const ExperimentConfig& cfg,
                                 std::pair<unsigned, unsigned> mix,
                                 SchedMode mode,
                                 const std::map<std::string, double>& baselines,
                                 unsigned replications) {
  ReplicatedMix out;
  out.mode = to_string(mode);
  out.mix = mix;
  for (unsigned r = 0; r < replications; ++r) {
    ExperimentConfig replica = cfg;
    replica.params.seed = cfg.params.seed + r;
    const MixRun run = run_mix(replica, mix, mode, baselines);
    out.first_normalized.add(run.first.normalized);
    out.second_normalized.add(run.second.normalized);
  }
  return out;
}

}  // namespace dws::harness

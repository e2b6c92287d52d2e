// Experiment drivers for the evaluation figures: solo baselines, co-run
// mixes on the simulated 16-core machine (Fig. 3 measurement methodology,
// Eq. 2 averaging), and normalized reporting.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "apps/profiles.hpp"
#include "core/types.hpp"
#include "sim/engine.hpp"
#include "util/stats.hpp"

namespace dws::harness {

/// Fixed experiment-wide settings.
struct ExperimentConfig {
  sim::SimParams params;       ///< machine + policy parameters
  double work_scale = 1.0;     ///< problem-size knob for all profiles
  unsigned target_runs = 4;    ///< repetitions per program (Fig. 3)
  unsigned baseline_runs = 4;  ///< repetitions for the solo baseline
};

/// The simulator spec that runs `profile` under `mode` for `target_runs`
/// runs, named after the profile and with its memory intensity. The spec
/// points at `profile.dag`, so the profile must outlive it.
sim::SimProgramSpec spec_for(const apps::SimAppProfile& profile,
                             SchedMode mode, unsigned target_runs);

/// Solo baseline: each app alone on all k cores under plain work-stealing
/// (the paper's "average non-interference execution time", §4.1). Keyed
/// by app name, value = mean run time (virtual us).
std::map<std::string, double> run_solo_baselines(const ExperimentConfig& cfg);

/// Result of co-running one mix under one mode.
struct MixRun {
  std::string mode;
  std::pair<unsigned, unsigned> mix;
  /// Per program: name, mean run time, normalized time (vs solo baseline).
  struct PerProgram {
    std::string name;
    double mean_us = 0.0;
    double normalized = 0.0;
    sim::ProgramResult raw;
  };
  PerProgram first, second;
};

/// Run mix (i, j) under `mode`. `baselines` must contain both app names.
MixRun run_mix(const ExperimentConfig& cfg,
               std::pair<unsigned, unsigned> mix, SchedMode mode,
               const std::map<std::string, double>& baselines);

/// Sum of both programs' normalized times — the scalar the paper's
/// "performance of the mix" comparisons reduce to.
[[nodiscard]] double mix_total_normalized(const MixRun& run);

/// Multi-seed replication: run the mix under `replications` different
/// engine seeds (cfg.params.seed + r) and aggregate per-program
/// normalized times. The simulator is deterministic per seed, so this
/// measures schedule sensitivity, not noise.
struct ReplicatedMix {
  std::string mode;
  std::pair<unsigned, unsigned> mix;
  util::Samples first_normalized;
  util::Samples second_normalized;
};

ReplicatedMix run_mix_replicated(const ExperimentConfig& cfg,
                                 std::pair<unsigned, unsigned> mix,
                                 SchedMode mode,
                                 const std::map<std::string, double>& baselines,
                                 unsigned replications);

}  // namespace dws::harness

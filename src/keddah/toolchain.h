// The Keddah toolchain facade: capture -> model -> reproduce in three calls.
//
//   core::CaptureSpec capture{.workload = workloads::Workload::kSort,
//                             .input_sizes = {1ull << 30},
//                             .repetitions = 2, .seed = 42, .threads = 0};
//   auto runs  = keddah::core::capture_runs(cfg, capture);
//   auto model = keddah::core::train(workload_name, runs, cfg);
//   auto replayed = keddah::core::generate_and_replay(
//       model, core::ReproduceSpec{.scenario = scenario, .seed = 7}, topo);
//
// This is the public API the examples and benches drive. Knobs live in spec
// structs (CaptureSpec / ReproduceSpec / ValidateSpec) so new options —
// thread counts, progress callbacks — never grow an argument list again.
// Sweep-shaped calls (capture_runs, validate_model repetitions) fan out
// across cores via core::SweepRunner; per-task seeds come from
// util::derive_seed, so output is bit-identical at any thread count.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/sweep.h"
#include "gen/generator.h"
#include "gen/replay.h"
#include "hadoop/config.h"
#include "keddah/compare.h"
#include "model/builder.h"
#include "workloads/suite.h"

namespace keddah::core {

/// Adapts a suite run into the trainer's input form.
model::TrainingRun to_training_run(const workloads::RunOutcome& outcome);

/// What to capture: `repetitions` jobs of `workload` at every input size,
/// each on a fresh emulated cluster seeded with derive_seed(seed, index).
struct CaptureSpec {
  workloads::Workload workload = workloads::Workload::kSort;
  std::vector<std::uint64_t> input_sizes;
  std::size_t repetitions = 1;
  std::uint64_t seed = 1;
  /// Worker threads for the size x repetition sweep; 0 = hardware
  /// concurrency. Results are identical at any value.
  std::size_t threads = 0;
  /// Called after each captured run as (done, total); runs arrive in order
  /// when threads == 1, so a caller can time each emulated job.
  SweepProgress progress;
  /// Optional fault plan injected into every captured run, so models can be
  /// trained on traffic as it looks under faults (retries, reruns, repair).
  hadoop::FaultPlan faults;
};

/// CAPTURE: runs the spec's sweep, capturing each run's flows. Outcomes are
/// ordered size-major then repetition, independent of thread count.
std::vector<model::TrainingRun> capture_runs(const hadoop::ClusterConfig& config,
                                             const CaptureSpec& spec);

/// MODEL: trains a KeddahModel from captured runs, recording the cluster
/// configuration in the model context.
model::KeddahModel train(const std::string& job_name, std::span<const model::TrainingRun> runs,
                         const hadoop::ClusterConfig& config,
                         const model::BuilderOptions& base_options = {});

/// What to reproduce: one scenario sampled from a model with `seed`.
struct ReproduceSpec {
  gen::Scenario scenario;
  std::uint64_t seed = 1;
  gen::GeneratorOptions gen_options;
  /// When non-empty, the replay capture spills to
  /// `<spill_dir>/capture.kspill` instead of RAM (capture/spill.h). Omitted
  /// from the serialized JSON when empty, so specs without it round-trip
  /// byte-identically.
  std::string spill_dir;
};

/// REPRODUCE: samples the model for the spec's scenario and replays the
/// schedule on `topology`, returning both the schedule and the capture.
struct ReproduceResult {
  gen::SyntheticTrafficSchedule schedule;
  gen::ReplayResult replay;
};
ReproduceResult generate_and_replay(const model::KeddahModel& model, const ReproduceSpec& spec,
                                    const net::Topology& topology);

/// How to validate: reproduce the reference run `repetitions` times (seeds
/// derive_seed(seed, rep), fanned across `threads` workers) and compare
/// against the capture. With repetitions > 1 the generated-side columns of
/// the report are means over the repetitions, damping sampling noise.
struct ValidateSpec {
  std::uint64_t seed = 1;
  std::size_t repetitions = 1;
  /// Worker threads for the repetition sweep; 0 = hardware concurrency.
  std::size_t threads = 0;
  gen::GeneratorOptions gen_options;
};

/// End-to-end validation: reproduces at the reference run's scale on the
/// config's topology and compares generated against captured traffic.
ValidationReport validate_model(const model::KeddahModel& model,
                                const model::TrainingRun& reference,
                                const hadoop::ClusterConfig& config, const ValidateSpec& spec);

/// Persists a captured run as `<basename>.csv` (flows) plus
/// `<basename>.meta.json` (job-log metadata), the on-disk interchange
/// format of the keddah CLI.
void save_run(const model::TrainingRun& run, const std::string& basename);

/// Loads a run persisted by save_run. Throws std::runtime_error on missing
/// or malformed files.
model::TrainingRun load_run(const std::string& basename);

}  // namespace keddah::core

#include "keddah/toolchain.h"

#include <cmath>

#include "util/json_reader.h"
#include "util/log.h"
#include "util/rng.h"

namespace keddah::core {

namespace {

/// Element-wise mean of per-repetition validation reports. The captured
/// side is identical in every report (same reference trace); the generated
/// side is averaged so repeated validation damps sampling noise.
ValidationReport mean_report(std::span<const ValidationReport> reports) {
  ValidationReport mean = reports[0];
  if (reports.size() == 1) return mean;
  const double n = static_cast<double>(reports.size());
  for (std::size_t k = 0; k < mean.classes.size(); ++k) {
    double flows = 0.0;
    double bytes = 0.0;
    double ks = 0.0;
    double pvalue = 0.0;
    for (const auto& report : reports) {
      flows += static_cast<double>(report.classes[k].generated_flows);
      bytes += report.classes[k].generated_bytes;
      ks += report.classes[k].size_ks;
      pvalue += report.classes[k].size_ks_pvalue;
    }
    mean.classes[k].generated_flows = static_cast<std::size_t>(std::llround(flows / n));
    mean.classes[k].generated_bytes = bytes / n;
    mean.classes[k].size_ks = ks / n;
    mean.classes[k].size_ks_pvalue = pvalue / n;
  }
  double total_bytes = 0.0;
  double span_s = 0.0;
  for (const auto& report : reports) {
    total_bytes += report.generated_total_bytes;
    span_s += report.generated_span_s;
  }
  mean.generated_total_bytes = total_bytes / n;
  mean.generated_span_s = span_s / n;
  return mean;
}

}  // namespace

model::TrainingRun to_training_run(const workloads::RunOutcome& outcome) {
  model::TrainingRun run;
  run.trace = outcome.trace;
  run.input_bytes = static_cast<double>(outcome.input_bytes);
  run.num_maps = outcome.result.num_maps;
  run.num_reducers = outcome.result.num_reducers;
  run.job_start = outcome.result.submit_time;
  run.job_end = outcome.result.end_time;
  return run;
}

std::vector<model::TrainingRun> capture_runs(const hadoop::ClusterConfig& config,
                                             const CaptureSpec& spec) {
  const workloads::Workload workload = spec.workload;
  const auto outcomes =
      workloads::run_grid(config, std::span(&workload, 1), spec.input_sizes, spec.repetitions,
                          spec.seed, spec.threads, spec.progress, spec.faults);
  std::vector<model::TrainingRun> runs;
  runs.reserve(outcomes.size());
  for (const auto& outcome : outcomes) runs.push_back(to_training_run(outcome));
  return runs;
}

model::KeddahModel train(const std::string& job_name, std::span<const model::TrainingRun> runs,
                         const hadoop::ClusterConfig& config,
                         const model::BuilderOptions& base_options) {
  model::BuilderOptions options = base_options;
  options.block_size = config.block_size;
  options.replication = config.replication;
  options.cluster_nodes = config.num_workers();
  return model::build_model(job_name, runs, options);
}

ReproduceResult generate_and_replay(const model::KeddahModel& model, const ReproduceSpec& spec,
                                    const net::Topology& topology) {
  ReproduceResult result;
  gen::TrafficGenerator generator(model, util::Rng(spec.seed), spec.gen_options);
  result.schedule = generator.generate(spec.scenario);
  result.replay = gen::replay(result.schedule, topology, 40.0e9, spec.spill_dir);
  return result;
}

ValidationReport validate_model(const model::KeddahModel& model,
                                const model::TrainingRun& reference,
                                const hadoop::ClusterConfig& config, const ValidateSpec& spec) {
  gen::Scenario scenario;
  scenario.input_bytes = reference.input_bytes;
  scenario.num_maps = reference.num_maps;
  scenario.num_reducers = reference.num_reducers;
  scenario.num_hosts = config.num_workers();
  const net::Topology topology = config.build_topology();

  const std::size_t repetitions = spec.repetitions == 0 ? 1 : spec.repetitions;
  SweepRunner runner({.threads = spec.threads});
  const auto reports = runner.map(repetitions, [&](std::size_t rep) {
    ReproduceSpec reproduce;
    reproduce.scenario = scenario;
    reproduce.seed = util::derive_seed(spec.seed, rep);
    reproduce.gen_options = spec.gen_options;
    const auto reproduced = generate_and_replay(model, reproduce, topology);
    return compare_traces(reference.trace, reproduced.replay.trace);
  });
  return mean_report(reports);
}

void save_run(const model::TrainingRun& run, const std::string& basename) {
  run.trace.save(basename + ".csv");
  util::Json meta = util::Json::object();
  meta["input_bytes"] = util::Json(run.input_bytes);
  meta["num_maps"] = util::Json(static_cast<std::uint64_t>(run.num_maps));
  meta["num_reducers"] = util::Json(static_cast<std::uint64_t>(run.num_reducers));
  meta["job_start"] = util::Json(run.job_start);
  meta["job_end"] = util::Json(run.job_end);
  meta.save_file(basename + ".meta.json");
}

model::TrainingRun load_run(const std::string& basename) {
  model::TrainingRun run;
  run.trace = capture::Trace::load(basename + ".csv");
  const std::string meta_path = basename + ".meta.json";
  const auto meta = util::Json::load_file(meta_path);
  util::Diagnostics diagnostics(meta_path);
  util::JsonReader r(meta, "", diagnostics);
  r.expect_object("run metadata must be a JSON object");
  auto amount = [&](const char* field) {
    r.require(field);
    const double value = r.number(field, 0.0);
    if (value < 0.0) r.error(field, "must be >= 0");
    return value;
  };
  run.input_bytes = amount("input_bytes");
  run.num_maps = r.require("num_maps") ? r.count("num_maps", 0, 0.0, "must be >= 0") : 0;
  run.num_reducers =
      r.require("num_reducers") ? r.count("num_reducers", 0, 0.0, "must be >= 0") : 0;
  run.job_start = amount("job_start");
  run.job_end = amount("job_end");
  diagnostics.throw_first_error();
  return run;
}

}  // namespace keddah::core

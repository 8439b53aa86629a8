#include "keddah/scenario.h"

#include <memory>
#include <stdexcept>

#include "hadoop/config_json.h"
#include "hadoop/faults.h"
#include "util/log.h"
#include "util/strings.h"

namespace keddah::core {

namespace {

std::uint64_t parse_size_field(const util::Json& doc, const std::string& key,
                               std::uint64_t fallback, bool required = false) {
  if (!doc.contains(key)) {
    if (required) throw std::invalid_argument("scenario: missing required field '" + key + "'");
    return fallback;
  }
  const auto& field = doc.at(key);
  if (field.is_number()) return static_cast<std::uint64_t>(field.as_number());
  std::uint64_t bytes = 0;
  if (!util::parse_bytes(field.as_string(), &bytes)) {
    throw std::invalid_argument("scenario: bad size in '" + key + "'");
  }
  return bytes;
}

}  // namespace

ScenarioSpec parse_scenario(const util::Json& doc, const std::string& context) {
  ScenarioSpec spec;
  spec.cluster = doc.contains("cluster")
                     ? hadoop::parse_cluster_config(doc.at("cluster"), context)
                     : hadoop::default_scenario_cluster();
  spec.seed = static_cast<std::uint64_t>(doc.get_number("seed", 1));
  spec.threads = static_cast<std::size_t>(doc.get_number("threads", 0));
  if (!doc.contains("jobs") || doc.at("jobs").size() == 0) {
    throw std::invalid_argument("scenario: needs a non-empty 'jobs' array");
  }
  for (const auto& entry : doc.at("jobs").as_array()) {
    ScenarioSpec::JobEntry job;
    if (!entry.contains("workload")) {
      throw std::invalid_argument("scenario: job missing 'workload'");
    }
    job.workload = workloads::workload_from_name(entry.at("workload").as_string());
    job.input_bytes = parse_size_field(entry, "input", 0, /*required=*/true);
    if (job.input_bytes == 0) throw std::invalid_argument("scenario: job input must be > 0");
    job.num_reducers = static_cast<std::size_t>(entry.get_number("reducers", 0));
    job.submit_at = entry.get_number("submit_at", 0.0);
    job.iterations = static_cast<std::size_t>(entry.get_number("iterations", 1));
    if (job.iterations == 0) throw std::invalid_argument("scenario: iterations must be >= 1");
    spec.jobs.push_back(job);
  }
  if (doc.contains("faults")) {
    spec.faults = hadoop::parse_fault_plan(doc.at("faults"), context);
  }
  if (doc.contains("failures")) {
    // Legacy alias: each {"worker", "at"} entry is a permanent crash.
    const hadoop::FaultPlan legacy =
        hadoop::parse_fault_plan(doc.at("failures"), context + " (failures)");
    spec.faults.events.insert(spec.faults.events.end(), legacy.events.begin(),
                              legacy.events.end());
  }
  // Range-check worker indices against the cluster described alongside them,
  // so a bad scenario file fails at parse time with its own name attached.
  hadoop::validate_fault_plan(spec.faults, spec.cluster.num_workers(), context);
  return spec;
}

ScenarioSpec load_scenario(const std::string& path) {
  return parse_scenario(util::Json::load_file(path), path);
}

ScenarioOutcome run_scenario(const ScenarioSpec& spec) {
  capture::CollectorOptions capture_options;
  capture_options.spill_dir = spec.spill_dir;
  hadoop::HadoopCluster cluster(spec.cluster, spec.seed, capture_options);
  ScenarioOutcome outcome;

  // Total completions expected = sum of iterations across entries.
  std::size_t expected = 0;
  for (const auto& job : spec.jobs) expected += job.iterations;

  cluster.schedule_fault_plan(spec.faults);

  std::size_t done = 0;
  cluster.control().enable();

  // Iterative chains submit their next round from the completion callback;
  // the chain state lives in a shared context per entry.
  struct Chain {
    workloads::Workload workload;
    std::size_t reducers;
    std::size_t remaining;
    std::size_t total;
    std::size_t index;
  };
  // submit_round is recursive through job completions; break the lambda
  // self-reference by storing it in a shared holder cleared at the end.
  auto submit_round = std::make_shared<
      std::function<void(std::shared_ptr<Chain>, std::vector<std::string>)>>();
  *submit_round = [&cluster, &outcome, &done, &expected, submit_round](
                      std::shared_ptr<Chain> chain, std::vector<std::string> inputs) {
    hadoop::JobSpec job_spec;
    job_spec.profile = workloads::profile(chain->workload);
    job_spec.profile.name =
        util::format("%s_j%zu_i%zu", workloads::workload_name(chain->workload), chain->index,
                     chain->total - chain->remaining);
    job_spec.input_file = inputs.front();
    job_spec.extra_inputs.assign(inputs.begin() + 1, inputs.end());
    job_spec.num_reducers = chain->reducers;
    cluster.runner().submit(job_spec, [&cluster, &outcome, &done, &expected, submit_round,
                                       chain](const hadoop::JobResult& result) {
      outcome.results.push_back(result);
      ++done;
      if (--chain->remaining > 0 && !result.output_files.empty()) {
        (*submit_round)(chain, result.output_files);
      }
      if (done == expected) cluster.control().disable();
    });
  };

  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    const auto& entry = spec.jobs[i];
    const std::string input = cluster.ensure_input(entry.input_bytes);
    auto chain = std::make_shared<Chain>();
    chain->workload = entry.workload;
    chain->reducers = entry.num_reducers == 0 ? workloads::default_reducers(entry.input_bytes)
                                              : entry.num_reducers;
    chain->remaining = entry.iterations;
    chain->total = entry.iterations;
    chain->index = i;
    cluster.simulator().schedule_at(entry.submit_at, [submit_round, chain, input] {
      (*submit_round)(chain, {input});
    });
  }

  cluster.simulator().run();
  if (done != expected) throw std::logic_error("scenario: not every job completed");
  *submit_round = nullptr;  // break the self-reference cycle
  if (cluster.collector().spilling()) {
    cluster.collector().finalize_spill();
    outcome.spilled_records = cluster.collector().spilled();
    outcome.spill_path = cluster.collector().spill_path();
  }
  outcome.trace = cluster.take_trace();
  outcome.history = cluster.history();
  outcome.rereplications = cluster.hdfs().rereplications();
  outcome.faults = cluster.fault_stats();
  outcome.scheduler = cluster.network().scheduler_stats();
  return outcome;
}

std::vector<ScenarioOutcome> run_scenarios(std::span<const ScenarioSpec> specs,
                                           std::size_t threads, SweepProgress progress) {
  if (threads == 0) {
    // No caller override: honour the specs' own thread budgets. Several
    // specs may disagree; the sweep is one pool, so take the largest.
    for (const auto& spec : specs) {
      if (spec.threads > threads) threads = spec.threads;
    }
  }
  SweepRunner runner({.threads = threads, .progress = std::move(progress)});
  return runner.map(specs.size(), [&](std::size_t i) { return run_scenario(specs[i]); });
}

}  // namespace keddah::core

#include "keddah/scenario.h"

#include <memory>
#include <stdexcept>

#include "hadoop/config_json.h"
#include "hadoop/faults.h"
#include "util/log.h"
#include "util/strings.h"

namespace keddah::core {

void read_spec_version(util::JsonReader& reader) {
  const util::Json* api = reader.find("api");
  if (api != nullptr && (!api->is_string() || api->as_string() != kSpecVersion)) {
    reader.error("api", "unsupported API version",
                 std::string("this build speaks \"") + kSpecVersion + "\"");
  }
}

namespace {

ScenarioSpec::JobEntry parse_job(const util::Json& doc, const std::string& key, double horizon,
                                 util::Diagnostics& diagnostics) {
  ScenarioSpec::JobEntry job;
  util::JsonReader r(doc, key, diagnostics);
  if (!r.expect_object("must be an object")) return job;
  const util::Json* workload = r.find("workload");
  if (workload == nullptr || !workload->is_string()) {
    r.error("workload", "missing workload name", "one of the names in workloads::all_workloads()");
  } else {
    const auto all = workloads::all_workloads();
    std::vector<std::string> names;
    for (const auto w : all) names.emplace_back(workloads::workload_name(w));
    job.workload = all[r.name("workload", names, 0, "workload")];
  }
  job.input_bytes = r.bytes("input", 0, /*required=*/true);
  job.num_reducers = r.count("reducers", 0, 0.0, "must be >= 0 (0 = auto)");
  job.submit_at = r.number("submit_at", 0.0);
  if (job.submit_at < 0.0) {
    r.error("submit_at", "must be >= 0");
  } else if (horizon > 0.0 && job.submit_at >= horizon) {
    r.error("submit_at",
            util::format("submits at %g s, outside the scenario horizon of %g s", job.submit_at,
                         horizon),
            "move the submission before the horizon or raise it");
  }
  job.iterations = r.count("iterations", 1, 1.0, "must be >= 1");
  return job;
}

}  // namespace

ScenarioSpec parse_scenario(const util::Json& doc, util::Diagnostics& diagnostics) {
  ScenarioSpec spec;
  util::JsonReader r(doc, "", diagnostics);
  if (!r.expect_object("a scenario must be a JSON object")) return spec;
  read_spec_version(r);
  spec.seed = r.count("seed", 1, 0.0, "must be >= 0");
  spec.threads = r.count("threads", 0, 0.0, "must be >= 0 (0 = serial)");
  const double horizon = r.number("horizon", 0.0);
  if (r.find("horizon") != nullptr && horizon <= 0.0) {
    r.error("horizon", "the scenario horizon must be > 0 seconds");
  }
  const util::Json* cluster = r.find("cluster");
  spec.cluster = cluster != nullptr ? hadoop::parse_cluster_config(*cluster, diagnostics)
                                    : hadoop::default_scenario_cluster();
  const util::Json* jobs = r.find("jobs");
  if (jobs == nullptr || !jobs->is_array() || jobs->size() == 0) {
    r.error("jobs", "a scenario needs a non-empty 'jobs' array",
            "add at least one {\"workload\": ..., \"input\": ...} entry");
  } else {
    for (std::size_t i = 0; i < jobs->size(); ++i) {
      spec.jobs.push_back(
          parse_job(jobs->at(i), util::format("jobs[%zu]", i), horizon, diagnostics));
    }
  }
  // "failures" is the legacy alias: each {"worker", "at"} entry is a crash.
  // Each array is checked on its own, under its own key.
  for (const char* key : {"faults", "failures"}) {
    if (const util::Json* faults = r.find(key)) {
      const auto plan = hadoop::parse_fault_plan(*faults, diagnostics, key,
                                                 spec.cluster.num_workers(), horizon);
      spec.faults.events.insert(spec.faults.events.end(), plan.events.begin(),
                                plan.events.end());
    }
  }
  return spec;
}

ScenarioSpec parse_scenario(const util::Json& doc, const std::string& context) {
  return util::parse_or_throw(context,
                              [&](util::Diagnostics& d) { return parse_scenario(doc, d); });
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

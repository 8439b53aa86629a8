#include "keddah/scenario.h"

#include "hadoop/config_json.h"
#include "hadoop/faults.h"
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

workloads::JobEntry parse_job(const util::Json& doc, const std::string& key, double horizon,
                              util::Diagnostics& diagnostics) {
  workloads::JobEntry job;
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
  cluster.schedule_fault_plan(spec.faults);
  ScenarioOutcome outcome;
  outcome.results = workloads::run_jobs(cluster, spec.jobs);
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
                                           std::size_t threads) {
  if (threads == 0) {
    // No caller override: honour the specs' own thread budgets. Several
    // specs may disagree; the sweep is one pool, so take the largest.
    for (const auto& spec : specs) {
      if (spec.threads > threads) threads = spec.threads;
    }
  }
  SweepRunner runner({.threads = threads});
  return runner.map(specs.size(), [&](std::size_t i) { return run_scenario(specs[i]); });
}

}  // namespace keddah::core

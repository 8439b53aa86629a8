#include "api/specs.h"

#include "hadoop/config_json.h"
#include "hadoop/faults.h"
#include "util/strings.h"

namespace keddah::api {

namespace {

/// Reads the object `doc` at key path `key` with `read`, throwing the first
/// defect as a SpecError naming `file`.
template <class Read>
auto parse_object(const util::Json& doc, const std::string& file, const std::string& key,
                  Read read) {
  util::Diagnostics diagnostics(file);
  util::JsonReader reader(doc, key, diagnostics);
  reader.expect_object("must be a JSON object");
  diagnostics.throw_first_error();
  auto result = read(reader);
  diagnostics.throw_first_error();
  return result;
}

hadoop::ClusterConfig read_cluster(util::JsonReader& r) {
  const util::Json* cluster = r.find("cluster");
  if (cluster == nullptr) return hadoop::default_scenario_cluster();
  return hadoop::parse_cluster_config(*cluster, r.diagnostics(), r.key("cluster"));
}

std::string read_model(util::JsonReader& r, const std::string& hint) {
  const std::string model = r.string("model", "");
  if (model.empty()) r.error("model", "missing required model name", hint);
  return model;
}

core::CaptureSpec read_capture_spec(util::JsonReader& r) {
  core::CaptureSpec spec;
  std::vector<std::string> names;
  for (const auto w : workloads::all_workloads()) names.emplace_back(workloads::workload_name(w));
  spec.workload = workloads::all_workloads()[r.name(
      "workload", names, static_cast<std::size_t>(workloads::Workload::kSort), "workload")];
  spec.input_sizes = r.byte_sizes("input_sizes");
  spec.repetitions = r.count("repetitions", 1, 1.0, "must be >= 1");
  spec.seed = r.count("seed", 1, 0.0, "must be >= 0");
  spec.threads = r.count("threads", 0, 0.0, "must be >= 0");
  if (const util::Json* faults = r.find("faults")) {
    spec.faults = hadoop::parse_fault_plan(*faults, r.diagnostics(), r.key("faults"));
  }
  return spec;
}

core::ReproduceSpec read_reproduce_spec(util::JsonReader& r) {
  core::ReproduceSpec spec;
  const util::Json* scenario = r.find("scenario");
  if (scenario == nullptr) {
    r.error("scenario", "missing required object");
  } else if (!scenario->is_object()) {
    r.error("scenario", "must be an object");
  } else {
    util::JsonReader s(*scenario, r.key("scenario"), r.diagnostics());
    spec.scenario.input_bytes = static_cast<double>(s.bytes("input", 0, /*required=*/true));
    spec.scenario.num_hosts = s.count("hosts", spec.scenario.num_hosts, 0.0, "must be >= 0");
    spec.scenario.num_maps = s.count("maps", 0, 0.0, "must be >= 0");
    spec.scenario.num_reducers = s.count("reducers", 0, 0.0, "must be >= 0");
  }
  spec.seed = r.count("seed", 1, 0.0, "must be >= 0");
  spec.gen_options.normalize_volume = r.boolean("normalize_volume", false);
  spec.spill_dir = r.string("spill_dir", "");
  return spec;
}

core::ValidateSpec read_validate_spec(util::JsonReader& r) {
  core::ValidateSpec spec;
  spec.seed = r.count("seed", 1, 0.0, "must be >= 0");
  spec.repetitions = r.count("repetitions", 1, 1.0, "must be >= 1");
  spec.threads = r.count("threads", 0, 0.0, "must be >= 0");
  spec.gen_options.normalize_volume = r.boolean("normalize_volume", false);
  return spec;
}

util::Json gen_scenario_to_json(const gen::Scenario& scenario) {
  util::Json doc = util::Json::object();
  doc["input"] = util::Json(scenario.input_bytes);
  doc["hosts"] = util::Json(static_cast<std::uint64_t>(scenario.num_hosts));
  doc["maps"] = util::Json(static_cast<std::uint64_t>(scenario.num_maps));
  doc["reducers"] = util::Json(static_cast<std::uint64_t>(scenario.num_reducers));
  return doc;
}

/// Per-class {"flows", "bytes"} map over the non-empty traffic classes.
util::Json class_stats_json(const capture::Trace& trace) {
  util::Json classes = util::Json::object();
  const auto stats = trace.class_stats();
  for (std::size_t k = 0; k < net::kNumFlowKinds; ++k) {
    if (stats[k].flows == 0) continue;
    util::Json entry = util::Json::object();
    entry["flows"] = util::Json(static_cast<std::uint64_t>(stats[k].flows));
    entry["bytes"] = util::Json(stats[k].bytes);
    classes[net::flow_kind_name(static_cast<net::FlowKind>(k))] = std::move(entry);
  }
  return classes;
}

}  // namespace

// ---------------------------------------------------------------- specs

core::CaptureSpec parse_capture_spec(const util::Json& doc, const std::string& file,
                                     const std::string& key) {
  return parse_object(doc, file, key, read_capture_spec);
}

util::Json capture_spec_to_json(const core::CaptureSpec& spec) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["workload"] = util::Json(workloads::workload_name(spec.workload));
  util::Json sizes = util::Json::array();
  for (const auto size : spec.input_sizes) sizes.push_back(util::Json(size));
  doc["input_sizes"] = std::move(sizes);
  doc["repetitions"] = util::Json(static_cast<std::uint64_t>(spec.repetitions));
  doc["seed"] = util::Json(spec.seed);
  doc["threads"] = util::Json(static_cast<std::uint64_t>(spec.threads));
  if (!spec.faults.empty()) doc["faults"] = hadoop::fault_plan_to_json(spec.faults);
  return doc;
}

core::ReproduceSpec parse_reproduce_spec(const util::Json& doc, const std::string& file,
                                         const std::string& key) {
  return parse_object(doc, file, key, read_reproduce_spec);
}

util::Json reproduce_spec_to_json(const core::ReproduceSpec& spec) {
  util::Json doc = util::Json::object();
  doc["scenario"] = gen_scenario_to_json(spec.scenario);
  doc["seed"] = util::Json(spec.seed);
  doc["normalize_volume"] = util::Json(spec.gen_options.normalize_volume);
  // Only serialized when set, so specs without it round-trip byte-identically
  // (the serve cache and CLI<->daemon identity tests pin those bytes).
  if (!spec.spill_dir.empty()) doc["spill_dir"] = util::Json(spec.spill_dir);
  return doc;
}

core::ValidateSpec parse_validate_spec(const util::Json& doc, const std::string& file,
                                       const std::string& key) {
  return parse_object(doc, file, key, read_validate_spec);
}

util::Json validate_spec_to_json(const core::ValidateSpec& spec) {
  util::Json doc = util::Json::object();
  doc["seed"] = util::Json(spec.seed);
  doc["repetitions"] = util::Json(static_cast<std::uint64_t>(spec.repetitions));
  doc["threads"] = util::Json(static_cast<std::uint64_t>(spec.threads));
  doc["normalize_volume"] = util::Json(spec.gen_options.normalize_volume);
  return doc;
}

// ------------------------------------------------------------- requests

WhatIfRequest parse_whatif_request(const util::Json& doc, const std::string& file) {
  return WhatIfRequest{core::parse_scenario(doc, file)};
}

WhatIfRequest parse_whatif_request(const util::Json& doc, util::Diagnostics& diagnostics) {
  return WhatIfRequest{core::parse_scenario(doc, diagnostics)};
}

ReproduceRequest parse_reproduce_request(const util::Json& doc, const std::string& file) {
  return parse_object(doc, file, "", [](util::JsonReader& r) {
    core::read_spec_version(r);
    ReproduceRequest request;
    request.model = read_model(r, "name a model in the daemon's bank (see /v1/stats for the list)");
    request.spec = read_reproduce_spec(r);
    request.cluster = read_cluster(r);
    // An absent host count means "every worker of the replay fabric".
    const util::Json* scenario = r.find("scenario");
    if (scenario != nullptr && !scenario->contains("hosts")) {
      request.spec.scenario.num_hosts = request.cluster.num_workers();
    }
    return request;
  });
}

util::Json reproduce_request_to_json(const ReproduceRequest& request) {
  util::Json doc = reproduce_spec_to_json(request.spec);
  doc["api"] = util::Json(kApiVersionString);
  doc["model"] = util::Json(request.model);
  doc["cluster"] = hadoop::cluster_config_to_json(request.cluster);
  return doc;
}

ValidateRequest parse_validate_request(const util::Json& doc, const std::string& file) {
  return parse_object(doc, file, "", [](util::JsonReader& r) {
    core::read_spec_version(r);
    ValidateRequest request;
    request.model = read_model(r, "");
    request.run = r.string("run", "");
    if (request.run.empty()) {
      r.error("run", "missing required run basename",
              "a run persisted by `keddah capture` (basename of .csv/.meta.json)");
    }
    request.spec = read_validate_spec(r);
    request.cluster = read_cluster(r);
    return request;
  });
}

util::Json validate_request_to_json(const ValidateRequest& request) {
  util::Json doc = validate_spec_to_json(request.spec);
  doc["api"] = util::Json(kApiVersionString);
  doc["model"] = util::Json(request.model);
  doc["run"] = util::Json(request.run);
  doc["cluster"] = hadoop::cluster_config_to_json(request.cluster);
  return doc;
}

// ------------------------------------------------------------ responses

util::Json whatif_response(const core::ScenarioOutcome& outcome) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["kind"] = util::Json("whatif");

  util::Json jobs = util::Json::array();
  for (const auto& r : outcome.results) {
    util::Json job = util::Json::object();
    job["name"] = util::Json(r.job_name);
    job["id"] = util::Json(static_cast<std::uint64_t>(r.job_id));
    job["submit_s"] = util::Json(r.submit_time);
    job["end_s"] = util::Json(r.end_time);
    job["maps"] = util::Json(static_cast<std::uint64_t>(r.num_maps));
    job["reducers"] = util::Json(static_cast<std::uint64_t>(r.num_reducers));
    job["input_bytes"] = util::Json(r.input_bytes);
    job["output_bytes"] = util::Json(r.output_bytes);
    jobs.push_back(std::move(job));
  }
  doc["jobs"] = std::move(jobs);

  util::Json trace = util::Json::object();
  trace["flows"] = util::Json(static_cast<std::uint64_t>(outcome.trace.size()));
  trace["total_bytes"] = util::Json(outcome.trace.total_bytes());
  trace["span_s"] = util::Json(
      outcome.trace.size() > 0 ? outcome.trace.last_end() - outcome.trace.first_start() : 0.0);
  trace["classes"] = class_stats_json(outcome.trace);
  doc["trace"] = std::move(trace);

  doc["rereplications"] = util::Json(static_cast<std::uint64_t>(outcome.rereplications));

  const auto& f = outcome.faults;
  util::Json faults = util::Json::object();
  faults["crashes"] = util::Json(f.crashes);
  faults["outages"] = util::Json(f.outages);
  faults["link_degradations"] = util::Json(f.link_degradations);
  faults["slow_nodes"] = util::Json(f.slow_nodes);
  faults["aborted_flows"] = util::Json(f.aborted_flows);
  faults["aborted_bytes"] = util::Json(f.aborted_bytes.value());
  faults["fetch_retries"] = util::Json(f.fetch_retries);
  faults["fetch_backoff_s"] = util::Json(f.fetch_backoff_s);
  faults["fetch_failure_reruns"] = util::Json(f.fetch_failure_reruns);
  faults["map_reruns"] = util::Json(f.map_reruns);
  faults["reducer_restarts"] = util::Json(f.reducer_restarts);
  faults["pipeline_rebuilds"] = util::Json(f.pipeline_rebuilds);
  faults["hdfs_read_retries"] = util::Json(f.hdfs_read_retries);
  faults["rereplications"] = util::Json(f.rereplications);
  doc["faults"] = std::move(faults);

  const auto& s = outcome.scheduler;
  util::Json scheduler = util::Json::object();
  scheduler["reshares"] = util::Json(s.reshares);
  scheduler["solves"] = util::Json(s.solves);
  scheduler["empty_reshares"] = util::Json(s.empty_reshares);
  scheduler["links_touched"] = util::Json(s.links_touched);
  scheduler["flows_visited"] = util::Json(s.flows_visited);
  scheduler["flows_rerated"] = util::Json(s.flows_rerated);
  scheduler["heap_ops"] = util::Json(s.heap_ops);
  doc["scheduler"] = std::move(scheduler);
  return doc;
}

util::Json reproduce_response(const core::ReproduceResult& result) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["kind"] = util::Json("reproduce");

  util::Json schedule = util::Json::object();
  schedule["flows"] = util::Json(static_cast<std::uint64_t>(result.schedule.flows.size()));
  schedule["total_bytes"] = util::Json(result.schedule.total_bytes());
  schedule["predicted_duration_s"] = util::Json(result.schedule.predicted_duration);
  util::Json classes = util::Json::object();
  for (std::size_t k = 0; k < net::kNumFlowKinds; ++k) {
    const auto kind = static_cast<net::FlowKind>(k);
    const std::size_t count = result.schedule.count(kind);
    if (count == 0) continue;
    util::Json entry = util::Json::object();
    entry["flows"] = util::Json(static_cast<std::uint64_t>(count));
    entry["bytes"] = util::Json(result.schedule.bytes_of(kind));
    classes[net::flow_kind_name(kind)] = std::move(entry);
  }
  schedule["classes"] = std::move(classes);
  doc["schedule"] = std::move(schedule);

  util::Json replay = util::Json::object();
  replay["flows"] = util::Json(static_cast<std::uint64_t>(result.replay.trace.size()));
  replay["total_bytes"] = util::Json(result.replay.trace.total_bytes());
  replay["makespan_s"] = util::Json(result.replay.makespan);
  replay["mean_fct_s"] = util::Json(result.replay.mean_fct());
  replay["p99_fct_s"] = util::Json(result.replay.p99_fct());
  doc["replay"] = std::move(replay);
  return doc;
}

util::Json validate_response(const core::ValidationReport& report) {
  util::Json doc = util::Json::object();
  doc["api"] = util::Json(kApiVersionString);
  doc["kind"] = util::Json("validate");
  util::Json classes = util::Json::object();
  for (const auto& c : report.classes) {
    if (c.captured_flows == 0 && c.generated_flows == 0) continue;
    util::Json entry = util::Json::object();
    entry["captured_flows"] = util::Json(static_cast<std::uint64_t>(c.captured_flows));
    entry["generated_flows"] = util::Json(static_cast<std::uint64_t>(c.generated_flows));
    entry["captured_bytes"] = util::Json(c.captured_bytes);
    entry["generated_bytes"] = util::Json(c.generated_bytes);
    entry["size_ks"] = util::Json(c.size_ks);
    entry["size_ks_pvalue"] = util::Json(c.size_ks_pvalue);
    classes[net::flow_kind_name(c.kind)] = std::move(entry);
  }
  doc["classes"] = std::move(classes);
  doc["captured_total_bytes"] = util::Json(report.captured_total_bytes);
  doc["generated_total_bytes"] = util::Json(report.generated_total_bytes);
  doc["captured_span_s"] = util::Json(report.captured_span_s);
  doc["generated_span_s"] = util::Json(report.generated_span_s);
  return doc;
}

std::string to_body(const util::Json& doc) { return doc.dump(2) + "\n"; }

}  // namespace keddah::api

#include "cli/cli.h"

#include <fstream>
#include <iostream>
#include <sstream>

#include <algorithm>
#include <cmath>
#include <optional>

#include "api/specs.h"
#include "capture/matrix.h"
#include "gen/ns3_export.h"
#include "hadoop/attribution.h"
#include "hadoop/config_json.h"
#include "hadoop/faults.h"
#include "keddah/scenario.h"
#include "model/calibration.h"
#include "keddah/toolchain.h"
#include "serve/server.h"
#include "stats/fitting.h"
#include "stats/summary.h"
#include "util/args.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace keddah::cli {

namespace {

/// The cluster the flags describe, range-checked like a scenario's
/// "cluster" object (hadoop::check_cluster_config).
hadoop::ClusterConfig config_from_args(const util::Args& args) {
  hadoop::ClusterConfig cfg;
  cfg.racks = args.get_count("racks", 4);
  cfg.hosts_per_rack = args.get_count("hosts-per-rack", 4);
  cfg.access_bps = args.get_double("access-gbps", 1.0) * 1e9;
  cfg.core_bps = args.get_double("core-gbps", 10.0) * 1e9;
  cfg.block_size = args.get_bytes("block-size", 128ull << 20);
  cfg.replication = static_cast<std::uint32_t>(args.get_count("replication", 3));
  cfg.containers_per_node = args.get_count("containers", 4);
  cfg.slowstart = args.get_double("slowstart", 0.05);
  cfg.locality_delay_s = args.get_double("locality-delay", 2.0);
  cfg.map_output_compress_ratio = args.get_double("compress-ratio", 1.0);
  cfg.speculative_execution = args.get_bool("speculative", false);
  cfg.straggler_fraction = args.get_double("straggler-fraction", 0.0);
  cfg.fetch_failure_threshold =
      static_cast<std::uint32_t>(args.get_count("fetch-failure-threshold", 3));
  cfg.fetch_retry_initial_s = args.get_double("fetch-backoff", 1.0);
  cfg.fetch_retry_cap_s = args.get_double("fetch-backoff-cap", 10.0);
  const std::string topo = args.get("topology", "racktree");
  if (topo == "star") {
    cfg.topology = hadoop::TopologyKind::kStar;
  } else if (topo == "fattree") {
    cfg.topology = hadoop::TopologyKind::kFatTree;
    cfg.fat_tree_k = args.get_count("fat-tree-k", 4);
  } else if (topo == "racktree") {
    cfg.topology = hadoop::TopologyKind::kRackTree;
  } else {
    throw std::invalid_argument("unknown --topology '" + topo + "'");
  }
  util::Diagnostics diagnostics("command line");
  hadoop::check_cluster_config(cfg, diagnostics);
  diagnostics.throw_first_error();
  return cfg;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  for (const auto& part : util::split(text, ',')) {
    if (!part.empty()) out.push_back(part);
  }
  return out;
}

/// Loads `--faults FILE` (a JSON array of fault events, same schema as a
/// scenario's "faults" field) and range-checks it against the cluster size.
hadoop::FaultPlan faults_from_args(const util::Args& args,
                                   const hadoop::ClusterConfig& cfg) {
  const std::string path = args.get("faults", "");
  if (path.empty()) return {};
  return hadoop::parse_fault_plan(util::Json::load_file(path), path, cfg.num_workers());
}

int cmd_capture(const util::Args& args, std::ostream& out, std::ostream& err) {
  (void)err;  // kept for subcommand-signature uniformity
  const auto cfg = config_from_args(args);
  const auto workload = workloads::workload_from_name(args.get("job", "sort"));
  const std::uint64_t input = args.get_bytes("input", 2ull << 30);
  const auto reps = args.get_count("reps", 1);
  const auto reducers = args.get_count("reducers", 0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const auto threads = args.get_count("threads", 1);
  const std::string out_base = args.get("out", "keddah_run");
  const auto faults = faults_from_args(args, cfg);
  args.reject_unknown();

  core::CaptureSpec spec;
  spec.workload = workload;
  spec.input_sizes = {input};
  spec.repetitions = reps;
  spec.seed = seed;
  spec.threads = threads;
  spec.faults = faults;
  // `capture` ignores --reducers only in the auto (0) case; a non-default
  // reducer count needs per-run control, so fall back to single runs.
  std::vector<model::TrainingRun> runs;
  if (reducers == 0) {
    runs = core::capture_runs(cfg, spec);
  } else {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      runs.push_back(core::to_training_run(workloads::run_single(
          cfg, workload, input, reducers, util::derive_seed(seed, rep), faults)));
    }
  }
  for (std::size_t rep = 0; rep < runs.size(); ++rep) {
    const auto& run = runs[rep];
    const std::string basename = util::format("%s_%zu", out_base.c_str(), rep);
    core::save_run(run, basename);
    out << "captured " << workloads::workload_name(workload) << " rep " << rep << ": "
        << run.trace.size() << " flows, " << util::human_bytes(run.trace.total_bytes())
        << ", job " << util::human_seconds(run.duration()) << " -> " << basename
        << ".{csv,meta.json}\n";
  }
  return 0;
}

int cmd_train(const util::Args& args, std::ostream& out, std::ostream& err) {
  const auto cfg = config_from_args(args);
  const auto bases = split_list(args.get("runs", ""));
  const std::string name = args.get("name", "job");
  const std::string model_path = args.get("out", "keddah_model.json");
  const std::string size_kind = args.get("size-model", "parametric");
  args.reject_unknown();
  if (bases.empty()) {
    err << "error: --runs requires a comma-separated list of run basenames\n";
    return 2;
  }
  std::vector<model::TrainingRun> runs;
  for (const auto& base : bases) runs.push_back(core::load_run(base));
  model::BuilderOptions options;
  options.size_kind = size_kind == "empirical" ? model::SizeModelKind::kEmpirical
                                               : model::SizeModelKind::kParametric;
  const auto model = core::train(name, runs, cfg, options);
  model.save(model_path);
  out << "trained '" << name << "' from " << runs.size() << " runs -> " << model_path << "\n";
  util::TextTable table({"class", "flows", "size model", "KS"});
  for (const auto kind : model::kModelledClasses) {
    const auto& cm = model.class_model(kind);
    if (cm.training_flows == 0) continue;
    table.add_row({net::flow_kind_name(kind), std::to_string(cm.training_flows),
                   cm.size.parametric ? cm.size.parametric->describe() : "(empirical)",
                   util::format("%.3f", cm.size.ks)});
  }
  table.print(out);
  return 0;
}

int cmd_generate(const util::Args& args, std::ostream& out, std::ostream& err) {
  const std::string model_path = args.get("model", "keddah_model.json");
  const double input = static_cast<double>(args.get_bytes("input", 8ull << 30));
  const auto hosts = args.get_count("hosts", 16);
  const auto maps = args.get_count("maps", 0);
  const auto reducers = args.get_count("reducers", 0);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const bool normalize = args.get_bool("normalize-volume", false);
  const std::string schedule_path = args.get("out", "keddah_schedule.csv");
  args.reject_unknown();

  const auto model = model::KeddahModel::load(model_path);
  gen::Scenario scenario;
  scenario.input_bytes = input;
  scenario.num_hosts = hosts;
  scenario.num_maps = maps;
  scenario.num_reducers = reducers;
  gen::GeneratorOptions options;
  options.normalize_volume = normalize;
  gen::TrafficGenerator generator(model, util::Rng(seed), options);
  const auto schedule = generator.generate(scenario);
  std::ofstream file(schedule_path);
  if (!file) {
    err << "error: cannot write " << schedule_path << "\n";
    return 1;
  }
  file << gen::schedule_to_csv(schedule);
  out << "generated " << schedule.flows.size() << " flows ("
      << util::human_bytes(schedule.total_bytes()) << ", predicted duration "
      << util::human_seconds(schedule.predicted_duration) << ") -> " << schedule_path << "\n";
  return 0;
}

gen::SyntheticTrafficSchedule load_schedule(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return gen::schedule_from_csv(buffer.str(), path);
}

int cmd_replay(const util::Args& args, std::ostream& out, std::ostream& err) {
  (void)err;  // kept for subcommand-signature uniformity
  const std::string schedule_path = args.get("schedule", "keddah_schedule.csv");
  const std::string spill_dir = args.get("spill-dir", "");
  const auto cfg = config_from_args(args);
  args.reject_unknown();
  const auto schedule = load_schedule(schedule_path);
  const auto result = gen::replay(schedule, cfg.build_topology(), 40.0e9, spill_dir);
  const auto replayed =
      result.spill_path.empty() ? result.trace.size() : result.spilled_records;
  out << "replayed " << replayed << " flows\n";
  if (!result.spill_path.empty()) {
    out << "spilled " << result.spilled_records << " records: " << result.spill_path << "\n";
  }
  util::TextTable table({"metric", "value"});
  // In spill mode the trace lives on disk; byte totals come from the reader.
  if (result.spill_path.empty()) {
    table.add_row({"bytes", util::human_bytes(result.trace.total_bytes())});
  }
  table.add_row({"makespan", util::human_seconds(result.makespan)});
  table.add_row({"mean FCT", util::format("%.3f s", result.mean_fct())});
  table.add_row({"p99 FCT", util::format("%.3f s", result.p99_fct())});
  table.print(out);
  return 0;
}

int cmd_validate(const util::Args& args, std::ostream& out, std::ostream& err) {
  const auto cfg = config_from_args(args);
  const std::string model_path = args.get("model", "keddah_model.json");
  const std::string run_base = args.get("run", "");
  core::ValidateSpec spec;
  spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.repetitions = args.get_count("reps", 1);
  spec.threads = args.get_count("threads", 0);
  args.reject_unknown();
  if (run_base.empty()) {
    err << "error: --run <basename> is required\n";
    return 2;
  }
  const auto model = model::KeddahModel::load(model_path);
  const auto reference = core::load_run(run_base);
  const auto report = core::validate_model(model, reference, cfg, spec);
  report.print(out);
  return 0;
}

int cmd_export_ns3(const util::Args& args, std::ostream& out, std::ostream& err) {
  (void)err;  // kept for subcommand-signature uniformity
  const std::string schedule_path = args.get("schedule", "keddah_schedule.csv");
  const std::string out_base = args.get("out", "keddah-replay");
  gen::Ns3ExportOptions options;
  options.num_hosts = args.get_count("hosts", 16);
  options.link_rate = args.get("link-rate", "1Gbps");
  options.link_delay = args.get("link-delay", "100us");
  args.reject_unknown();
  const auto schedule = load_schedule(schedule_path);
  gen::export_ns3(schedule, out_base, options);
  out << "wrote " << out_base << ".csv and " << out_base << ".cc (" << schedule.flows.size()
      << " flows)\n";
  return 0;
}

int cmd_analyze(const util::Args& args, std::ostream& out, std::ostream& err) {
  const std::string trace_path = args.get("trace", "");
  const std::string history_path = args.get("history", "");
  const auto hosts = args.get_count("hosts", 0);
  args.reject_unknown();
  if (trace_path.empty()) {
    err << "error: --trace <file.csv> is required\n";
    return 2;
  }
  const auto trace = capture::Trace::load(trace_path);
  // Both inputs load before anything prints, so a bad history prints only
  // its error.
  std::optional<hadoop::JobHistoryLog> history;
  if (!history_path.empty()) history = hadoop::JobHistoryLog::load(history_path);
  out << "Trace: " << trace.size() << " flows, " << util::human_bytes(trace.total_bytes())
      << " over " << util::human_seconds(trace.last_end() - trace.first_start()) << "\n\n";

  // Per-class decomposition + size summaries + best fit.
  util::TextTable classes(
      {"class", "flows", "bytes", "share", "median", "p99", "best fit", "KS"});
  const double total = std::max(trace.total_bytes(), 1.0);
  for (std::size_t k = 0; k < net::kNumFlowKinds; ++k) {
    const auto kind = static_cast<net::FlowKind>(k);
    const auto class_trace = trace.filter_kind(kind);
    if (class_trace.empty()) continue;
    const auto sizes = class_trace.sizes();
    const auto best = stats::fit_best(sizes);
    classes.add_row(
        {net::flow_kind_name(kind), std::to_string(class_trace.size()),
         util::human_bytes(class_trace.total_bytes()),
         util::format("%.1f%%", 100.0 * class_trace.total_bytes() / total),
         util::human_bytes(stats::quantile(sizes, 0.5)),
         util::human_bytes(stats::quantile(sizes, 0.99)),
         best ? best->dist.describe() : "(none)",
         best ? util::format("%.3f", best->ks) : "-"});
  }
  classes.print(out);

  // Hotspots (needs node ids; infer the matrix size from the records).
  std::size_t max_node = 0;
  for (const auto& r : trace.records()) {
    max_node = std::max<std::size_t>(max_node, std::max(r.src_id, r.dst_id));
  }
  const std::size_t num_nodes = hosts > 0 ? hosts : max_node + 1;
  const auto matrix = capture::TrafficMatrix::from_trace(trace, num_nodes);
  out << util::format("\nhotspot factor (max node load / mean): %.2f\n", matrix.imbalance());
  util::TextTable pairs({"src", "dst", "bytes", "share"});
  for (const auto& p : matrix.hottest_pairs(5)) {
    pairs.add_row({std::to_string(p.src), std::to_string(p.dst), util::human_bytes(p.bytes),
                   util::format("%.1f%%", 100.0 * p.bytes / std::max(matrix.total(), 1.0))});
  }
  pairs.print(out);

  // Temporal profile (ASCII).
  const double span = trace.last_end() - trace.first_start();
  const double bin = std::max(1.0, std::ceil(span / 20.0));
  const auto series = trace.throughput_series(bin);
  double peak = 1.0;
  for (const double b : series) peak = std::max(peak, b);
  out << "\nthroughput profile (bin " << bin << " s):\n";
  for (std::size_t i = 0; i < series.size(); ++i) {
    const auto bar = static_cast<std::size_t>(40.0 * series[i] / peak);
    out << util::format("%6.0fs |%s %s\n", static_cast<double>(i) * bin,
                        std::string(bar, '#').c_str(), util::human_bytes(series[i]).c_str());
  }

  // Attribution against a history log, when provided.
  if (history) {
    const auto attribution = hadoop::attribute_flows(trace, *history);
    out << util::format(
        "\nattribution vs %s: %zu/%zu flows attributed, precision %.1f%%, recall %.1f%%\n",
        history_path.c_str(), attribution.attributed, trace.size(),
        100.0 * attribution.precision(), 100.0 * attribution.recall());
  }
  return 0;
}

int cmd_calibrate(const util::Args& args, std::ostream& out, std::ostream& err) {
  const std::string run_base = args.get("run", "");
  const auto nodes = args.get_count("nodes", 16);
  const auto replication = static_cast<std::uint32_t>(args.get_count("replication", 3));
  const double compress = args.get_double("compress-ratio", 1.0);
  args.reject_unknown();
  if (run_base.empty()) {
    err << "error: --run <basename> is required\n";
    return 2;
  }
  const auto run = core::load_run(run_base);
  model::CalibrationContext context;
  context.cluster_nodes = nodes;
  context.replication = replication;
  context.map_output_compress_ratio = compress;
  const auto profile = model::calibrate_profile(run, context);
  util::TextTable table({"quantity", "value"});
  table.add_row({"map selectivity", util::format("%.4f", profile.map_selectivity)});
  table.add_row({"reduce selectivity", util::format("%.4f", profile.reduce_selectivity)});
  table.add_row({"partition skew (zipf)", util::format("%.2f", profile.partition_skew)});
  table.add_row({"shuffle bytes (wire)", util::human_bytes(profile.shuffle_bytes)});
  table.add_row({"est. map output", util::human_bytes(profile.estimated_map_output)});
  table.add_row({"write bytes (wire)", util::human_bytes(profile.write_bytes)});
  table.add_row({"est. job output", util::human_bytes(profile.estimated_job_output)});
  table.print(out);
  return 0;
}

void print_scenario_outcome(const core::ScenarioOutcome& outcome, std::ostream& out) {
  util::TextTable table({"job", "id", "submit_s", "duration_s", "maps", "reducers", "input",
                         "output"});
  for (const auto& r : outcome.results) {
    table.add_row({r.job_name, std::to_string(r.job_id), util::format("%.1f", r.submit_time),
                   util::format("%.1f", r.duration()), std::to_string(r.num_maps),
                   std::to_string(r.num_reducers),
                   util::human_bytes(static_cast<double>(r.input_bytes)),
                   util::human_bytes(static_cast<double>(r.output_bytes))});
  }
  table.print(out);
  if (!outcome.spill_path.empty()) {
    out << "\ncaptured " << outcome.spilled_records << " flows, spilled to "
        << outcome.spill_path;
  } else {
    const auto stats = outcome.trace.class_stats();
    out << "\ncaptured " << outcome.trace.size() << " flows, "
        << util::human_bytes(outcome.trace.total_bytes()) << " (shuffle "
        << util::human_bytes(stats[static_cast<std::size_t>(net::FlowKind::kShuffle)].bytes)
        << ", hdfs_write "
        << util::human_bytes(stats[static_cast<std::size_t>(net::FlowKind::kHdfsWrite)].bytes)
        << ")";
  }
  if (outcome.rereplications > 0) {
    out << "; " << outcome.rereplications << " re-replication transfers";
  }
  out << "\n";
  const auto& f = outcome.faults;
  if (f.crashes + f.outages + f.link_degradations + f.slow_nodes > 0) {
    out << "\nfault injections: " << f.crashes << " crashes, " << f.outages << " outages, "
        << f.link_degradations << " link degradations, " << f.slow_nodes << " slow nodes\n";
    util::TextTable recovery({"recovery metric", "value"});
    recovery.add_row({"aborted flows", std::to_string(f.aborted_flows)});
    recovery.add_row({"aborted bytes", util::human_bytes(f.aborted_bytes.value())});
    recovery.add_row({"fetch retries", std::to_string(f.fetch_retries)});
    recovery.add_row({"fetch backoff", util::human_seconds(f.fetch_backoff_s)});
    recovery.add_row({"fetch-failure reruns", std::to_string(f.fetch_failure_reruns)});
    recovery.add_row({"map reruns", std::to_string(f.map_reruns)});
    recovery.add_row({"reducer restarts", std::to_string(f.reducer_restarts)});
    recovery.add_row({"pipeline rebuilds", std::to_string(f.pipeline_rebuilds)});
    recovery.add_row({"hdfs read retries", std::to_string(f.hdfs_read_retries)});
    recovery.add_row({"re-replications", std::to_string(f.rereplications)});
    recovery.print(out);
  }
  const auto& s = outcome.scheduler;
  out << "\nscheduler: " << s.reshares << " reshares (" << s.solves << " solves, "
      << s.empty_reshares << " no-ops), " << util::format("%.1f", s.links_per_reshare())
      << " links/reshare, " << s.flows_rerated << "/" << s.flows_visited
      << " flows re-rated, " << s.heap_ops << " heap ops\n";
}

int cmd_run_scenario(const util::Args& args, std::ostream& out, std::ostream& err) {
  const std::string file = args.get("file", "");
  const std::string trace_path = args.get("trace-out", "");
  const std::string history_path = args.get("history-out", "");
  const std::string spill_dir = args.get("spill-dir", "");
  // Overrides the scenarios' own "threads" fields for the batch sweep.
  const auto threads = args.get_count("threads", 0);
  // --json prints the Spec-API response document instead of tables; the
  // bytes are identical to a `keddah serve` /v1/whatif response for the
  // same scenario (api/specs.h).
  const bool as_json = args.get_bool("json", false);
  args.reject_unknown();
  if (file.empty()) {
    err << "error: --file <scenario.json>[,more.json...] is required\n";
    return 2;
  }
  const auto files = split_list(file);
  std::vector<core::ScenarioSpec> specs;
  specs.reserve(files.size());
  for (const auto& path : files) specs.push_back(core::load_scenario(path));
  if (!spill_dir.empty()) {
    // One spill file per scenario: with several files each gets its own
    // numbered subdirectory so the captures never clobber each other.
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].spill_dir =
          specs.size() == 1 ? spill_dir : spill_dir + "/" + std::to_string(i);
    }
  }
  const auto outcomes = core::run_scenarios(specs, threads);

  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (as_json) {
      out << api::to_body(api::whatif_response(outcomes[i]));
      continue;
    }
    if (outcomes.size() > 1) out << (i > 0 ? "\n" : "") << "=== " << files[i] << " ===\n";
    print_scenario_outcome(outcomes[i], out);
  }
  // Artefact outputs keep their single-scenario meaning: with several
  // scenarios the first one's capture is written (one file, one trace).
  if (!trace_path.empty()) {
    if (!outcomes.front().spill_path.empty()) {
      err << "warning: --trace-out ignored with --spill-dir (capture already on disk: "
          << outcomes.front().spill_path << ")\n";
    } else {
      outcomes.front().trace.save(trace_path);
      out << "trace written: " << trace_path << "\n";
    }
  }
  if (!history_path.empty()) {
    outcomes.front().history.save(history_path);
    out << "history written: " << history_path << "\n";
  }
  return 0;
}

int cmd_report(const util::Args& args, std::ostream& out, std::ostream& err) {
  (void)err;  // kept for subcommand-signature uniformity
  const std::string model_path = args.get("model", "keddah_model.json");
  args.reject_unknown();
  const auto model = model::KeddahModel::load(model_path);
  const auto& ctx = model.context();
  out << "# Keddah model report: " << model.job_name() << "\n\n";
  out << "Trained on " << ctx.num_runs << " runs, inputs "
      << util::human_bytes(ctx.min_input_bytes) << " .. "
      << util::human_bytes(ctx.max_input_bytes) << "; cluster " << ctx.cluster_nodes
      << " nodes, " << util::human_bytes(static_cast<double>(ctx.block_size)) << " blocks, "
      << "replication " << ctx.replication << ".\n\n";
  out << util::format("Job duration model: %.2f s + %.3g s/GB (R^2 %.3f)\n\n",
                      model.duration_model().intercept,
                      model.duration_model().slope * 1e9 * 1.073741824,
                      model.duration_model().r2);
  util::TextTable table({"class", "flows", "count law", "size model", "KS", "repr",
                         "bytes/GB input"});
  for (const auto kind : model::kModelledClasses) {
    const auto& cm = model.class_model(kind);
    if (cm.training_flows == 0) continue;
    table.add_row(
        {net::flow_kind_name(kind), std::to_string(cm.training_flows),
         util::format("%.3g x %s", cm.count.fit.slope, cm.count.regressor.c_str()),
         cm.size.parametric ? cm.size.parametric->describe() : "(none)",
         util::format("%.3f", cm.size.ks),
         cm.size.kind == model::SizeModelKind::kParametric ? "parametric" : "empirical",
         util::human_bytes(model.volume_model(kind).slope * (1ull << 30))});
  }
  table.print(out);
  out << "\nPhase windows (fraction of job duration):\n";
  util::TextTable phases({"class", "start", "end"});
  for (const auto kind : model::kModelledClasses) {
    const auto& cm = model.class_model(kind);
    if (!cm.temporal.trained()) continue;
    phases.add_row({net::flow_kind_name(kind),
                    util::format("%.2f", cm.temporal.phase_start_frac),
                    util::format("%.2f", cm.temporal.phase_end_frac)});
  }
  phases.print(out);
  return 0;
}

}  // namespace

std::string usage() {
  return
      "keddah — capture, model, and reproduce Hadoop network traffic\n"
      "\n"
      "subcommands:\n"
      "  capture    run emulated MapReduce jobs and capture their flows\n"
      "             --job NAME --input SIZE [--reps N] [--reducers N] [--seed N]\n"
      "             [--threads N] [--out BASENAME] [--faults FILE] [cluster flags]\n"
      "             --faults FILE injects a JSON fault plan (crash / outage /\n"
      "             degrade_link / slow_node events; see src/hadoop/faults.h)\n"
      "             into every captured run\n"
      "  train      fit a Keddah model from captured runs\n"
      "             --runs base0,base1,... --name NAME [--out FILE]\n"
      "             [--size-model parametric|empirical] [cluster flags]\n"
      "  generate   sample a model into a flow schedule\n"
      "             --model FILE --input SIZE [--hosts N] [--maps N]\n"
      "             [--reducers N] [--normalize-volume] [--seed N] [--out FILE]\n"
      "  replay     replay a schedule on a simulated fabric. --spill-dir\n"
      "             streams the capture to an mmap'd spill file there\n"
      "             instead of RAM (capture/spill.h).\n"
      "             --schedule FILE [--spill-dir DIR] [cluster flags]\n"
      "  validate   compare generated traffic against a captured run\n"
      "             --model FILE --run BASENAME [--reps N] [--threads N]\n"
      "             [cluster flags]\n"
      "  export-ns3 emit an ns-3 replay program + schedule CSV\n"
      "             --schedule FILE [--out BASENAME] [--hosts N]\n"
      "             [--link-rate R] [--link-delay D]\n"
      "  report     summarize a trained model (fits, laws, phases)\n"
      "             --model FILE\n"
      "  run-scenario  execute JSON-described experiments (cluster, job\n"
      "             mix, iterations, fault injections; see src/keddah/scenario.h).\n"
      "             Several comma-separated files run in parallel across\n"
      "             --threads workers (0 = all cores); results print in file\n"
      "             order and are identical at any thread count. --json\n"
      "             prints the Spec-API response document (byte-identical\n"
      "             to a `keddah serve` /v1/whatif response).\n"
      "             --spill-dir streams each capture to an mmap'd spill\n"
      "             file (numbered subdirectories with several files).\n"
      "             --file FILE[,FILE...] [--threads N] [--json]\n"
      "             [--trace-out FILE] [--history-out FILE] [--spill-dir DIR]\n"
      "  serve      resident what-if daemon: keeps models hot, answers\n"
      "             Spec-API queries over HTTP (/v1/health /v1/stats\n"
      "             /v1/whatif /v1/reproduce /v1/validate /v1/shutdown),\n"
      "             and caches responses by request content hash.\n"
      "             [--port N (0 = ephemeral)] [--threads N]\n"
      "             [--models FILE,FILE...] [--model-bank FILE]\n"
      "             [--max-models N] [--cache-entries N]\n"
      "  analyze    characterize a captured trace (classes, fits, hotspots,\n"
      "             temporal profile; attribution when a history is given)\n"
      "             --trace FILE [--history FILE] [--hosts N]\n"
      "  calibrate  estimate a job's selectivities/skew from a captured run\n"
      "             --run BASENAME [--nodes N] [--replication N]\n"
      "             [--compress-ratio F]\n"
      "\n"
      "cluster flags: --topology star|racktree|fattree --racks N\n"
      "  --hosts-per-rack N --access-gbps G --core-gbps G --block-size SIZE\n"
      "  --replication N --containers N --slowstart F --locality-delay S\n"
      "  --compress-ratio F --speculative --straggler-fraction F --fat-tree-k K\n"
      "  --fetch-failure-threshold N --fetch-backoff S --fetch-backoff-cap S\n";
}

int run(const std::vector<std::string>& tokens, std::ostream& out, std::ostream& err) {
  if (tokens.empty() || tokens[0] == "help" || tokens[0] == "--help") {
    out << usage();
    return tokens.empty() ? 2 : 0;
  }
  const std::string command = tokens[0];
  const std::vector<std::string> rest(tokens.begin() + 1, tokens.end());
  try {
    const auto args = util::Args::parse(rest);
    if (command == "capture") return cmd_capture(args, out, err);
    if (command == "train") return cmd_train(args, out, err);
    if (command == "generate") return cmd_generate(args, out, err);
    if (command == "replay") return cmd_replay(args, out, err);
    if (command == "validate") return cmd_validate(args, out, err);
    if (command == "export-ns3") return cmd_export_ns3(args, out, err);
    if (command == "report") return cmd_report(args, out, err);
    if (command == "run-scenario") return cmd_run_scenario(args, out, err);
    if (command == "analyze") return cmd_analyze(args, out, err);
    if (command == "calibrate") return cmd_calibrate(args, out, err);
    if (command == "serve") return serve::run_serve_command(args, out, err);
    err << "error: unknown subcommand '" << command << "'\n" << usage();
    return 2;
  } catch (const util::UsageError& e) {
    err << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << "\n";
    return 1;
  }
}

int run_main(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  return run(tokens, std::cout, std::cerr);
}

}  // namespace keddah::cli

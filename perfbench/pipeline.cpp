// pipeline-testbed: the paper's capture -> model -> validate toolchain, once
// per pass, on the paper testbed. Each pass captures sort, wordcount and
// terasort at 1-8 GB x 2 repetitions, trains one model per job and
// validates it against a held-out 4 GB capture, all single-threaded.
//
// Passes cycle through kReplicas seeds derived from --seed. One replica's
// model error swings by tens of percent with the seed (the wordcount model
// most), so the fidelity metrics average the replicas; the pass after the
// last replica repeats the first and must reproduce it bit for bit.
#include <cmath>
#include <string>
#include <vector>

#include "harness.h"
#include "keddah/toolchain.h"
#include "util/rng.h"

namespace perfbench {

namespace kc = keddah::core;
namespace kw = keddah::workloads;

namespace {

constexpr std::uint64_t kGiB = 1ull << 30;
constexpr kw::Workload kJobs[] = {kw::Workload::kSort, kw::Workload::kWordCount,
                                  kw::Workload::kTeraSort};
constexpr std::size_t kSizes = 8;
constexpr std::size_t kRepetitions = 2;
constexpr std::uint64_t kReferenceBytes = 4 * kGiB;
constexpr std::uint64_t kReplicas = 4;

/// Everything one pass needs before its timed work starts.
struct Plan {
  keddah::hadoop::ClusterConfig cluster;
  std::vector<kc::CaptureSpec> grids;
  std::vector<kc::CaptureSpec> references;
  kc::ValidateSpec validate;
};

Plan make_plan(std::uint64_t seed) {
  Plan plan;
  plan.cluster = testbed();
  for (std::size_t j = 0; j < std::size(kJobs); ++j) {
    kc::CaptureSpec grid;
    grid.workload = kJobs[j];
    for (std::size_t s = 1; s <= kSizes; ++s) grid.input_sizes.push_back(s * kGiB);
    grid.repetitions = kRepetitions;
    grid.seed = keddah::util::derive_seed(seed, 2 * j);
    grid.threads = 1;
    plan.grids.push_back(std::move(grid));

    kc::CaptureSpec reference;
    reference.workload = kJobs[j];
    reference.input_sizes = {kReferenceBytes};
    reference.repetitions = 1;
    reference.seed = keddah::util::derive_seed(seed, 2 * j + 1);
    reference.threads = 1;
    plan.references.push_back(std::move(reference));
  }
  plan.validate.seed = keddah::util::derive_seed(seed, 100);
  // Four generator draws per validation, averaged by validate_model, damp
  // the sampling noise of a single reproduction.
  plan.validate.repetitions = 4;
  plan.validate.threads = 1;
  return plan;
}

struct PassOutput {
  std::vector<kc::ValidationReport> reports;
  /// Host seconds of each emulated job, in capture order.
  std::vector<double> job_seconds;
  bool captures_complete = true;
};

bool run_complete(const keddah::model::TrainingRun& run) {
  return !run.trace.empty() && run.num_maps > 0 && run.job_end > run.job_start;
}

std::size_t total_flows(const std::vector<keddah::model::TrainingRun>& runs) {
  std::size_t flows = 0;
  for (const auto& run : runs) flows += run.trace.size();
  return flows;
}

/// One toolchain pass. Progress callbacks mark the end of each emulated job
/// (threads = 1, so they arrive in order on this thread).
PassOutput toolchain_pass(Plan& plan, Tracer& tracer, std::uint64_t pass) {
  PassOutput out;
  Clock::time_point last = Clock::now();
  auto mark_job = [&](std::size_t, std::size_t) {
    const Clock::time_point now = Clock::now();
    out.job_seconds.push_back(seconds_between(last, now));
    last = now;
  };
  auto capture = [&](kc::CaptureSpec& spec) {
    spec.progress = mark_job;
    auto span = tracer.scope("capture", pass);
    last = Clock::now();
    auto runs = kc::capture_runs(plan.cluster, spec);
    span.count("flows", static_cast<double>(total_flows(runs)));
    for (const auto& run : runs) out.captures_complete = out.captures_complete && run_complete(run);
    return runs;
  };
  for (std::size_t j = 0; j < std::size(kJobs); ++j) {
    const auto runs = capture(plan.grids[j]);
    const auto reference = capture(plan.references[j]);
    keddah::model::KeddahModel model;
    {
      auto span = tracer.scope("train", pass);
      model = kc::train(kw::workload_name(kJobs[j]), runs, plan.cluster);
      span.count("runs", static_cast<double>(runs.size()));
    }
    auto span = tracer.scope("validate", pass);
    std::size_t generated = 0;
    for (const auto& run : reference) {
      out.reports.push_back(kc::validate_model(model, run, plan.cluster, plan.validate));
      for (const auto& c : out.reports.back().classes) generated += c.generated_flows;
    }
    span.count("generated_flows", static_cast<double>(generated));
  }
  return out;
}

constexpr keddah::net::FlowKind kFidelityClasses[] = {keddah::net::FlowKind::kHdfsRead,
                                                      keddah::net::FlowKind::kShuffle,
                                                      keddah::net::FlowKind::kHdfsWrite};

std::pair<double, double> fidelity(const std::vector<kc::ValidationReport>& reports) {
  std::vector<double> volume;
  std::vector<double> ks;
  for (const auto& report : reports) {
    volume.push_back(std::fabs(report.total_volume_error()));
    for (auto kind : kFidelityClasses) ks.push_back(report.of(kind).size_ks);
  }
  return {mean(volume), mean(ks)};
}

std::uint64_t digest(const std::vector<kc::ValidationReport>& reports) {
  std::uint64_t h = kFnvOffset;
  for (const auto& r : reports) {
    for (const auto& c : r.classes) {
      h = fnv1a_value(c.captured_flows, h);
      h = fnv1a_value(c.generated_flows, h);
      h = fnv1a_value(c.captured_bytes, h);
      h = fnv1a_value(c.generated_bytes, h);
      h = fnv1a_value(c.size_ks, h);
      h = fnv1a_value(c.size_ks_pvalue, h);
    }
    h = fnv1a_value(r.captured_total_bytes, h);
    h = fnv1a_value(r.generated_total_bytes, h);
    h = fnv1a_value(r.captured_span_s, h);
    h = fnv1a_value(r.generated_span_s, h);
  }
  return h;
}

bool finite(const std::vector<kc::ValidationReport>& reports) {
  for (const auto& r : reports) {
    if (!std::isfinite(r.total_volume_error()) || !std::isfinite(r.generated_span_s)) return false;
    for (const auto& c : r.classes) {
      if (!std::isfinite(c.size_ks) || !std::isfinite(c.generated_bytes)) return false;
    }
  }
  return true;
}

}  // namespace

std::pair<double, double> toolchain_fidelity(std::uint64_t seed) {
  Tracer off(false);
  std::vector<kc::ValidationReport> reports;
  for (std::uint64_t replica = 0; replica < kReplicas; ++replica) {
    Plan plan = make_plan(keddah::util::derive_seed(seed, replica));
    const auto out = toolchain_pass(plan, off, replica);
    reports.insert(reports.end(), out.reports.begin(), out.reports.end());
  }
  return fidelity(reports);
}

Result run_pipeline(const Options& options) {
  Result result;
  Tracer tracer(false);
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;
  std::vector<double> job_s;
  std::vector<std::uint64_t> replica_digest;
  std::vector<kc::ValidationReport> replica_reports;

  // Every replica once plus one repeat, so each run checks that a pass
  // reproduces exactly. A traced run makes one untraced cycle of replicas
  // and then one traced cycle, so the overhead compares the same inputs.
  const std::uint64_t min_passes = options.trace ? 2 * kReplicas : kReplicas + 1;
  const Clock::time_point window = Clock::now();
  for (std::uint64_t pass = 0; pass < min_passes || seconds_since(window) < options.seconds;
       ++pass) {
    const std::uint64_t replica = pass % kReplicas;
    const bool traced = options.trace && pass / kReplicas == 1;
    if (options.trace && pass == 2 * kReplicas) break;
    tracer.set_enabled(traced);

    const Clock::time_point t0 = Clock::now();
    Plan plan = make_plan(keddah::util::derive_seed(options.seed, replica));
    const Clock::time_point t1 = Clock::now();
    PassOutput out = toolchain_pass(plan, tracer, pass);
    const Clock::time_point t2 = Clock::now();

    setup_s.push_back(seconds_between(t0, t1));
    (traced ? traced_wall_s : wall_s).push_back(seconds_between(t1, t2));
    if (!traced) job_s.insert(job_s.end(), out.job_seconds.begin(), out.job_seconds.end());

    const std::uint64_t d = digest(out.reports);
    if (pass < kReplicas) {
      replica_digest.push_back(d);
      replica_reports.insert(replica_reports.end(), out.reports.begin(), out.reports.end());
    }
    const char* failure = !out.captures_complete ? "a capture did not complete"
                          : !finite(out.reports) ? "non-finite validation report"
                          : d != replica_digest[replica]
                              ? "validation report differs from the replica's first pass"
                              : nullptr;
    result.operation(failure == nullptr,
                     "pass " + std::to_string(pass) + ": " + (failure ? failure : ""));
  }

  const auto fid = fidelity(replica_reports);
  result.end_to_end["wall_s"] = median(wall_s);
  result.end_to_end["setup_s"] = median(setup_s);
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();
  result.end_to_end["whatif_p50_ms"] = 1e3 * quantile(job_s, 0.50);
  result.end_to_end["whatif_p99_ms"] = 1e3 * quantile(job_s, 0.99);
  result.end_to_end["whatif_qps"] = static_cast<double>(job_s.size()) / sum(job_s);
  result.end_to_end["fidelity_volume_err"] = fid.first;
  result.end_to_end["fidelity_size_ks"] = fid.second;

  if (options.trace) {
    const double capture_s = median(tracer.per_run("capture"));
    const double flows = median(tracer.per_run("capture", "flows"));
    result.layers["trace.overhead_s"] = median(traced_wall_s) - median(wall_s);
    result.layers["trace.spans"] = static_cast<double>(tracer.size());
    result.layers["capture.wall_s"] = capture_s;
    result.layers["capture.flows"] = flows;
    result.layers["capture.flows_per_s"] = flows / capture_s;
    result.layers["train.wall_s"] = median(tracer.per_run("train"));
    result.layers["train.runs"] = median(tracer.per_run("train", "runs"));
    result.layers["validate.wall_s"] = median(tracer.per_run("validate"));
    result.layers["validate.generated_flows"] =
        median(tracer.per_run("validate", "generated_flows"));
    tracer.write(options.work_dir + "/spans-pipeline-testbed.json", options.workload,
                 options.seed);
  }
  return result;
}

}  // namespace perfbench

#include "workloads/suite.h"

#include <functional>
#include <stdexcept>

#include "util/log.h"
#include "util/strings.h"

namespace keddah::workloads {

std::vector<hadoop::JobResult> run_jobs(hadoop::HadoopCluster& cluster,
                                        std::span<const JobEntry> entries) {
  // Total completions expected = sum of iterations across entries.
  std::size_t expected = 0;
  for (const auto& entry : entries) {
    if (entry.iterations == 0) throw std::invalid_argument("run_jobs: need >= 1 iteration");
    expected += entry.iterations;
  }
  std::vector<hadoop::JobResult> results;
  if (expected == 0) return results;
  results.reserve(expected);

  // Ingest every input before time starts.
  std::vector<std::string> inputs;
  inputs.reserve(entries.size());
  for (const auto& entry : entries) inputs.push_back(cluster.ensure_input(entry.input_bytes));

  // Submits round `round` of entry `j` reading `files`; its completion
  // submits the next round on the part files it wrote.
  std::function<void(std::size_t, std::size_t, const std::vector<std::string>&)> submit =
      [&](std::size_t j, std::size_t round, const std::vector<std::string>& files) {
        const JobEntry& entry = entries[j];
        hadoop::JobSpec spec = make_spec(
            entry.workload, files.front(),
            entry.num_reducers == 0 ? default_reducers(entry.input_bytes) : entry.num_reducers);
        spec.profile.name = util::format("%s_j%zu_i%zu", workload_name(entry.workload), j, round);
        spec.extra_inputs.assign(files.begin() + 1, files.end());
        cluster.runner().submit(spec, [&, j, round](const hadoop::JobResult& result) {
          results.push_back(result);
          if (round + 1 < entries[j].iterations && !result.output_files.empty()) {
            submit(j, round + 1, result.output_files);
          }
          if (results.size() == expected) cluster.control().disable();
        });
      };

  cluster.control().enable();
  for (std::size_t j = 0; j < entries.size(); ++j) {
    cluster.simulator().schedule_at(entries[j].submit_at,
                                    [&submit, &inputs, j] { submit(j, 0, {inputs[j]}); });
  }
  cluster.simulator().run();
  if (results.size() != expected) throw std::logic_error("run_jobs: not every job completed");
  return results;
}

RunOutcome run_single(const hadoop::ClusterConfig& config, Workload workload,
                      std::uint64_t input_bytes, std::size_t num_reducers, std::uint64_t seed,
                      const hadoop::FaultPlan& faults) {
  RunOutcome outcome;
  outcome.workload = workload;
  outcome.input_bytes = input_bytes;
  outcome.seed = seed;
  outcome.num_reducers = num_reducers == 0 ? default_reducers(input_bytes) : num_reducers;

  hadoop::HadoopCluster cluster(config, seed);
  cluster.schedule_fault_plan(faults);
  const JobEntry entry{workload, input_bytes, outcome.num_reducers};
  outcome.result = run_jobs(cluster, std::span(&entry, 1)).front();
  outcome.faults = cluster.fault_stats();
  outcome.trace = cluster.take_trace();
  KLOG_INFO << "run " << workload_name(workload) << " input=" << input_bytes
            << " seed=" << seed << ": " << outcome.trace.size() << " flows, "
            << outcome.result.duration() << " s";
  return outcome;
}

std::vector<JobEntry> sample_poisson_mix(const PoissonMixSpec& spec, util::Rng& rng) {
  if (spec.workloads.empty() || spec.input_sizes.empty() || spec.arrival_rate <= 0.0) {
    throw std::invalid_argument("poisson mix: need workloads, sizes, positive rate");
  }
  std::vector<JobEntry> jobs;
  double t = rng.exponential(spec.arrival_rate);
  while (t < spec.horizon_s && (spec.max_jobs == 0 || jobs.size() < spec.max_jobs)) {
    JobEntry job;
    job.workload = spec.workloads[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.workloads.size()) - 1))];
    job.input_bytes = spec.input_sizes[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(spec.input_sizes.size()) - 1))];
    job.submit_at = t;
    jobs.push_back(job);
    t += rng.exponential(spec.arrival_rate);
  }
  return jobs;
}

std::vector<RunOutcome> run_grid(const hadoop::ClusterConfig& config,
                                 std::span<const Workload> workloads,
                                 std::span<const std::uint64_t> input_sizes,
                                 std::size_t repetitions, std::uint64_t base_seed,
                                 std::size_t threads, core::SweepProgress progress,
                                 const hadoop::FaultPlan& faults) {
  const std::size_t cells = workloads.size() * input_sizes.size() * repetitions;
  core::SweepRunner runner({.threads = threads, .progress = std::move(progress)});
  // Flattened (workload, size, repetition) cell -> independent simulation;
  // the derived seed depends only on the cell index, never on scheduling.
  return runner.map(cells, [&](std::size_t cell) {
    const std::size_t per_workload = input_sizes.size() * repetitions;
    const Workload w = workloads[cell / per_workload];
    const std::uint64_t bytes = input_sizes[(cell % per_workload) / repetitions];
    return run_single(config, w, bytes, 0, util::derive_seed(base_seed, cell), faults);
  });
}

}  // namespace keddah::workloads

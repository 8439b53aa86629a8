// Experiment suite driver: runs (workload, input size) grids on fresh
// emulated clusters and returns (result, trace) pairs — the raw material
// for Keddah's modelling stage and for every bench.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "capture/trace.h"
#include "hadoop/cluster.h"
#include "core/sweep.h"
#include "util/rng.h"
#include "workloads/profiles.h"

namespace keddah::workloads {

/// One job submission: a single job, one job of a concurrent mix, or the
/// head of an iterative chain.
struct JobEntry {
  Workload workload = Workload::kSort;
  std::uint64_t input_bytes = 0;
  /// 0 selects default_reducers(input_bytes).
  std::size_t num_reducers = 0;
  /// Submission time, seconds from simulation start.
  double submit_at = 0.0;
  /// > 1 chains each round's output part files into the next round's input
  /// (PageRank/KMeans style); round k+1 is submitted when round k completes.
  std::size_t iterations = 1;
};

/// The one place jobs are submitted. Ingests every entry's input, enables
/// the control plane, submits each entry at its `submit_at`, chains its
/// iterations from completion callbacks, and runs `cluster`'s simulator
/// until every job has completed (the control plane is then disabled, so
/// the simulator drains). Faults must already be scheduled on the cluster.
/// Returns one result per job (iterations expand), in completion order; job
/// names read "<workload>_j<entry>_i<iteration>". Throws
/// std::invalid_argument on an entry with 0 iterations and std::logic_error
/// when the simulator drains before every job completed. Pending callbacks
/// refer to this call's locals, so after a throw from inside the run the
/// cluster must not be run again.
std::vector<hadoop::JobResult> run_jobs(hadoop::HadoopCluster& cluster,
                                        std::span<const JobEntry> entries);

/// One captured job run.
struct RunOutcome {
  Workload workload = Workload::kSort;
  std::uint64_t input_bytes = 0;
  std::size_t num_reducers = 0;
  std::uint64_t seed = 0;
  hadoop::JobResult result;
  capture::Trace trace;
  /// Injected faults and recovery counters (all zero on clean runs).
  hadoop::FaultStats faults;
};

/// Runs one job on a fresh cluster built from `config`, capturing its
/// flows. `num_reducers == 0` selects default_reducers(input_bytes). A
/// non-empty `faults` plan is scheduled on the cluster before the job runs.
RunOutcome run_single(const hadoop::ClusterConfig& config, Workload workload,
                      std::uint64_t input_bytes, std::size_t num_reducers, std::uint64_t seed,
                      const hadoop::FaultPlan& faults = {});

/// Runs `repetitions` seeds of every (workload, input size) combination,
/// fanned out across `threads` workers (0 = hardware concurrency, 1 =
/// serial). Each cell runs on a fresh cluster seeded with
/// util::derive_seed(base_seed, cell index), so the outcome vector —
/// ordered workload-major, then size, then repetition — is bit-identical
/// at any thread count. The same `faults` plan (if any) is injected into
/// every cell, so a whole capture grid can run under identical faults.
std::vector<RunOutcome> run_grid(const hadoop::ClusterConfig& config,
                                 std::span<const Workload> workloads,
                                 std::span<const std::uint64_t> input_sizes,
                                 std::size_t repetitions, std::uint64_t base_seed,
                                 std::size_t threads = 1, core::SweepProgress progress = {},
                                 const hadoop::FaultPlan& faults = {});

/// Cluster-load description for sampled mixes: each arrival draws a
/// workload uniformly from `workloads` and an input size uniformly from
/// `input_sizes`.
struct PoissonMixSpec {
  std::vector<Workload> workloads;
  std::vector<std::uint64_t> input_sizes;
  /// Mean job arrival rate, jobs/second.
  double arrival_rate = 0.01;
  /// Arrivals are drawn on [0, horizon_s).
  double horizon_s = 600.0;
  /// Cap on generated jobs (0 = unlimited).
  std::size_t max_jobs = 0;
};

/// Samples a Poisson-arrival job mix (the "realistic scenario" load shape:
/// memoryless job submissions, as in production cluster traces).
std::vector<JobEntry> sample_poisson_mix(const PoissonMixSpec& spec, util::Rng& rng);

}  // namespace keddah::workloads

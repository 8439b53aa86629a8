// Declarative experiment scenarios: a JSON file describes the cluster, the
// job mix (with submit times), and fault injections; run_scenario() builds
// the cluster, executes everything, and returns the capture + per-job
// results. This is how downstream users script reproducible experiments
// without writing C++ (CLI: `keddah run-scenario --file exp.json`).
//
// Schema (all fields optional unless noted):
//   {
//     "seed": 42,
//     "threads": 0,                  // worker threads when this scenario is
//                                    // part of a batch sweep (run_scenarios /
//                                    // `keddah run-scenario --file a.json,b.json`);
//                                    // 0 = hardware concurrency. A single
//                                    // scenario is one deterministic
//                                    // simulation and always runs serially.
//                                    // CLI --threads overrides this field.
//     "cluster": {
//       "topology": "racktree" | "star" | "fattree",
//       "racks": 4, "hosts_per_rack": 4, "fat_tree_k": 4,
//       "access_gbps": 1.0, "core_gbps": 10.0,
//       "block_size": "128MB", "replication": 3, "containers": 4,
//       "slowstart": 0.05, "locality_delay_s": 2.0,
//       "compress_ratio": 1.0, "speculative": false,
//       "straggler_fraction": 0.0
//     },
//     "jobs": [                      // required, >= 1
//       { "workload": "sort",       // required
//         "input": "4GB",           // required
//         "reducers": 8,            // 0/absent = auto
//         "submit_at": 0.0,
//         "iterations": 1 }         // > 1 chains output -> input
//     ],
//     "faults": [                    // scripted fault injections
//       { "kind": "crash",        "worker": 5, "at": 12.5 },
//       { "kind": "outage",       "worker": 3, "at": 10.0, "duration": 15.0 },
//       { "kind": "degrade_link", "worker": 2, "at": 5.0,
//         "duration": 20.0, "factor": 0.1 },
//       { "kind": "slow_node",    "worker": 1, "at": 0.0,
//         "duration": 30.0, "factor": 4.0 }
//     ],
//     "failures": [ { "worker": 5, "at": 12.5 } ]   // legacy alias:
//                                    // each entry is a crash fault
//   }
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "capture/trace.h"
#include "core/sweep.h"
#include "hadoop/cluster.h"
#include "hadoop/joblog.h"
#include "util/json.h"
#include "workloads/profiles.h"

namespace keddah::core {

/// Parsed scenario description.
struct ScenarioSpec {
  hadoop::ClusterConfig cluster;
  std::uint64_t seed = 1;
  /// Worker-thread budget when this scenario runs as part of a batch sweep
  /// (core::run_scenarios); 0 = hardware concurrency.
  std::size_t threads = 0;

  struct JobEntry {
    workloads::Workload workload = workloads::Workload::kSort;
    std::uint64_t input_bytes = 0;
    std::size_t num_reducers = 0;  // 0 = auto
    double submit_at = 0.0;
    std::size_t iterations = 1;
  };
  std::vector<JobEntry> jobs;

  /// Scripted faults ("faults" array; legacy "failures" entries become crash
  /// events). Worker indices are validated against the cluster size at parse
  /// time and again when the plan is scheduled.
  hadoop::FaultPlan faults;

  /// When non-empty, the capture spills to `<spill_dir>/capture.kspill`
  /// (mmap'd, append-only; see capture/spill.h) instead of accumulating in
  /// RAM, and ScenarioOutcome::trace comes back empty. Not part of the JSON
  /// schema: set by hosting code (CLI --spill-dir), so scenario documents
  /// stay portable across machines.
  std::string spill_dir;
};

/// Parses a scenario document; throws std::invalid_argument /
/// std::runtime_error with a field-specific message on malformed input.
/// `context` names the source (file path, ...) in those messages.
ScenarioSpec parse_scenario(const util::Json& doc,
                            const std::string& context = "scenario");

/// Convenience: load + parse a scenario file. Parse errors name the file.
ScenarioSpec load_scenario(const std::string& path);

/// Everything a scenario run produces.
struct ScenarioOutcome {
  /// One result per completed job (iterations expand to one result each),
  /// in completion order.
  std::vector<hadoop::JobResult> results;
  capture::Trace trace;
  hadoop::JobHistoryLog history;
  /// Background repair transfers triggered by injected failures.
  std::size_t rereplications = 0;
  /// Injected faults and the recovery work they caused (all zero on clean
  /// runs).
  hadoop::FaultStats faults;
  /// Fair-share scheduler perf counters for the run (reshares, links
  /// touched, heap ops; see net::SchedulerStats).
  net::SchedulerStats scheduler;
  /// Spill results when ScenarioSpec::spill_dir was set: records written
  /// and the finalized spill file (trace above is empty in that mode).
  std::uint64_t spilled_records = 0;
  std::string spill_path;
};

/// Builds the cluster and runs the whole scenario to completion.
ScenarioOutcome run_scenario(const ScenarioSpec& spec);

/// Fans a batch of scenarios out across cores (core::SweepRunner) and
/// returns their outcomes in spec order. `threads` 0 defers to the largest
/// `threads` field among the specs (which itself defaults to 0 = hardware
/// concurrency). Backs `keddah run-scenario --file a.json,b.json --threads N`.
std::vector<ScenarioOutcome> run_scenarios(std::span<const ScenarioSpec> specs,
                                           std::size_t threads = 0, SweepProgress progress = {});

}  // namespace keddah::core

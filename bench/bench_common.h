// Shared scenario defaults and helpers for the Keddah bench harness.
//
// Every bench binary reproduces one table or figure of the paper's
// evaluation (our canonical numbering; see DESIGN.md §4) and prints its
// rows/series as aligned text on stdout. The default testbed matches
// DESIGN.md: 16 workers in 4 racks, 1 GbE access / 10 GbE core, 128 MB
// blocks, replication 3, 4 containers per node (paper-era slot counts —
// slot contention is what produces realistic ~85% map locality and hence
// non-zero HDFS-read traffic).
//
// Perf benches time through time_repeated() (one warm-up run, then N timed
// repetitions, reported as median and IQR) and stamp their JSON with
// provenance_json(), so a BENCH_*.json number says how it was measured.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "capture/trace.h"
#include "hadoop/config.h"
#include "keddah/toolchain.h"
#include "util/strings.h"
#include "util/table.h"

// Set per bench target by bench/CMakeLists.txt.
#ifndef KEDDAH_BUILD_TYPE
#define KEDDAH_BUILD_TYPE "unknown"
#endif
#ifndef KEDDAH_COMMIT
#define KEDDAH_COMMIT "unknown"
#endif

namespace keddah::bench {

inline constexpr std::uint64_t kGiB = 1ull << 30;
inline constexpr std::uint64_t kMiB = 1ull << 20;

/// The paper-style default cluster.
inline hadoop::ClusterConfig default_config() {
  hadoop::ClusterConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.access_bps = 1.0e9;
  cfg.core_bps = 10.0e9;
  cfg.block_size = 128ull << 20;
  cfg.replication = 3;
  cfg.containers_per_node = 4;
  // ~92-97% node-local maps across input sizes; the residual misses are
  // what the paper's HDFS-read class is made of.
  cfg.locality_delay_s = 2.0;
  return cfg;
}

/// Classified per-class byte total of a trace.
inline double class_bytes(const capture::Trace& trace, net::FlowKind kind) {
  return trace.class_stats()[static_cast<std::size_t>(kind)].bytes;
}

/// Classified per-class flow count of a trace.
inline std::size_t class_flows(const capture::Trace& trace, net::FlowKind kind) {
  return trace.class_stats()[static_cast<std::size_t>(kind)].flows;
}

/// Capture a training grid through the spec API, fanned across all cores
/// (threads = 0). Deterministic for a given seed regardless of core count.
inline std::vector<model::TrainingRun> capture(const hadoop::ClusterConfig& cfg,
                                               workloads::Workload workload,
                                               std::vector<std::uint64_t> input_sizes,
                                               std::size_t repetitions, std::uint64_t seed) {
  core::CaptureSpec spec;
  spec.workload = workload;
  spec.input_sizes = std::move(input_sizes);
  spec.repetitions = repetitions;
  spec.seed = seed;
  spec.threads = 0;
  return core::capture_runs(cfg, spec);
}

/// Repeated wall-clock samples of one bench case, in run order.
struct Timing {
  std::vector<double> samples_s;

  /// Linear-interpolated quantile of the samples (0 when empty).
  double quantile(double q) const {
    if (samples_s.empty()) return 0.0;
    std::vector<double> sorted = samples_s;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
  }
  double median_s() const { return quantile(0.5); }
  double iqr_s() const { return quantile(0.75) - quantile(0.25); }
};

/// Runs `once` one untimed warm-up time, then `reps` timed times. `once`
/// returns the seconds of its own timed region, so per-run set-up (building
/// a topology, scheduling the load) stays out of the samples.
template <typename Fn>
Timing time_repeated(std::size_t reps, Fn&& once) {
  once();  // warm-up: page faults, allocator growth, cold caches
  Timing timing;
  timing.samples_s.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) timing.samples_s.push_back(once());
  return timing;
}

/// How a BENCH_*.json was measured: build type and source commit (both
/// fixed when CMake configures the bench tree), logical CPUs, and the
/// repetition scheme.
inline std::string provenance_json(std::size_t reps) {
  return util::format(R"({"build_type":"%s","commit":"%s","cpus":%u,"warmup":1,"reps":%zu})",
                      KEDDAH_BUILD_TYPE, KEDDAH_COMMIT, std::thread::hardware_concurrency(),
                      reps);
}

/// Standard bench banner.
inline void banner(const std::string& experiment_id, const std::string& description) {
  std::cout << "# Keddah reproduction — " << experiment_id << "\n"
            << "# " << description << "\n";
}

}  // namespace keddah::bench

// Property sweep over EVERY workload family: byte-conservation laws that
// tie captured traffic back to the profile's selectivities, classifier
// agreement, and profile calibration round-trips (run with known profile,
// estimate it back from the capture).
#include <gtest/gtest.h>

#include <cmath>

#include "model/calibration.h"
#include "keddah/toolchain.h"
#include "workloads/suite.h"

namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace kw = keddah::workloads;
namespace km = keddah::model;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

kh::ClusterConfig sweep_config() {
  kh::ClusterConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  cfg.containers_per_node = 4;
  return cfg;
}

class WorkloadProperty : public ::testing::TestWithParam<kw::Workload> {
 protected:
  static kw::RunOutcome run() {
    return kw::run_single(sweep_config(), GetParam(), 1024 * kMiB, 8,
                          4242 + static_cast<std::uint64_t>(GetParam()));
  }
};

double class_bytes(const keddah::capture::Trace& trace, kn::FlowKind kind) {
  return trace.class_stats()[static_cast<std::size_t>(kind)].bytes;
}

}  // namespace

TEST_P(WorkloadProperty, OutputMatchesSelectivities) {
  const auto outcome = run();
  const auto profile = kw::profile(GetParam());
  const double expected_output =
      profile.map_selectivity * profile.reduce_selectivity *
      static_cast<double>(outcome.result.input_bytes);
  // Partitioning truncation and per-map float rounding stay tiny.
  EXPECT_NEAR(static_cast<double>(outcome.result.output_bytes), expected_output,
              0.01 * expected_output + 1e5)
      << kw::workload_name(GetParam());
}

TEST_P(WorkloadProperty, ShuffleVolumeMatchesStructuralLaw) {
  const auto outcome = run();
  const auto profile = kw::profile(GetParam());
  // Network shuffle ~ (1 - 1/N) x map output (+ tiny HTTP overheads).
  const double map_output =
      profile.map_selectivity * static_cast<double>(outcome.result.input_bytes);
  const double expected = map_output * (1.0 - 1.0 / 16.0);
  const double measured = class_bytes(outcome.trace, kn::FlowKind::kShuffle);
  // Endpoint sampling makes the local fraction stochastic; 15% tolerance
  // plus overhead slack covers every family including near-zero shuffles.
  EXPECT_NEAR(measured, expected, 0.15 * expected + 2e6) << kw::workload_name(GetParam());
}

TEST_P(WorkloadProperty, WriteVolumeMatchesReplication) {
  const auto outcome = run();
  // Off-node write copies = (replication - 1) x output bytes.
  const double expected = 2.0 * static_cast<double>(outcome.result.output_bytes);
  const double measured = class_bytes(outcome.trace, kn::FlowKind::kHdfsWrite);
  EXPECT_NEAR(measured, expected, 0.02 * expected + 1e5) << kw::workload_name(GetParam());
}

TEST_P(WorkloadProperty, ClassifierMatchesGroundTruthEverywhere) {
  const auto outcome = run();
  for (const auto& r : outcome.trace.records()) {
    EXPECT_EQ(keddah::capture::classify_by_ports(r), r.truth)
        << kw::workload_name(GetParam()) << " " << outcome.trace.name(r.src_id) << ":"
        << r.src_port << " -> " << outcome.trace.name(r.dst_id) << ":" << r.dst_port;
  }
}

TEST_P(WorkloadProperty, CalibrationRecoversProfile) {
  const auto outcome = run();
  const auto truth = kw::profile(GetParam());
  const auto training_run = keddah::core::to_training_run(outcome);
  km::CalibrationContext context;
  context.cluster_nodes = 16;
  context.replication = 3;
  const auto estimated = km::calibrate_profile(training_run, context);
  EXPECT_NEAR(estimated.map_selectivity, truth.map_selectivity,
              0.15 * truth.map_selectivity + 0.002)
      << kw::workload_name(GetParam());
  EXPECT_NEAR(estimated.reduce_selectivity, truth.reduce_selectivity,
              0.20 * truth.reduce_selectivity + 0.02)
      << kw::workload_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadProperty,
                         ::testing::ValuesIn(std::vector<kw::Workload>(
                             kw::all_workloads().begin(), kw::all_workloads().end())),
                         [](const auto& info) { return kw::workload_name(info.param); });

TEST(Calibration, SkewDetection) {
  // High-skew pagerank should calibrate a larger exponent than terasort.
  const auto skewed = kw::run_single(sweep_config(), kw::Workload::kPageRank, 1024 * kMiB, 8, 9);
  const auto flat = kw::run_single(sweep_config(), kw::Workload::kTeraSort, 1024 * kMiB, 8, 9);
  km::CalibrationContext context;
  context.cluster_nodes = 16;
  const auto skewed_profile =
      km::calibrate_profile(keddah::core::to_training_run(skewed), context);
  const auto flat_profile = km::calibrate_profile(keddah::core::to_training_run(flat), context);
  EXPECT_GT(skewed_profile.partition_skew, flat_profile.partition_skew + 0.2);
}

TEST(Calibration, CompressionCorrection) {
  auto cfg = sweep_config();
  cfg.map_output_compress_ratio = 0.35;
  const auto outcome = kw::run_single(cfg, kw::Workload::kSort, 512 * kMiB, 8, 11);
  km::CalibrationContext context;
  context.cluster_nodes = 16;
  context.replication = 3;
  context.map_output_compress_ratio = 0.35;
  const auto estimated =
      km::calibrate_profile(keddah::core::to_training_run(outcome), context);
  EXPECT_NEAR(estimated.map_selectivity, 1.0, 0.15);
}

TEST(Calibration, DegenerateContextThrows) {
  km::TrainingRun run;
  km::CalibrationContext context;
  context.cluster_nodes = 1;
  EXPECT_THROW(km::calibrate_profile(run, context), std::invalid_argument);
}

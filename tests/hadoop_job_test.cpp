// Integration tests for the MapReduce engine and cluster facade: end-to-end
// job runs, traffic decomposition, slow-start behaviour, control plane,
// map-only jobs, and classifier agreement with ground truth.
#include <gtest/gtest.h>

#include <cmath>

#include "hadoop/cluster.h"
#include "workloads/profiles.h"

namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace kc = keddah::capture;
namespace kw = keddah::workloads;

namespace {

kh::ClusterConfig test_config() {
  kh::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  cfg.containers_per_node = 4;
  return cfg;
}

constexpr std::uint64_t kMiB = 1ull << 20;

double class_bytes(const kc::Trace& trace, kn::FlowKind kind) {
  return trace.class_stats()[static_cast<std::size_t>(kind)].bytes;
}

std::size_t class_flows(const kc::Trace& trace, kn::FlowKind kind) {
  return trace.class_stats()[static_cast<std::size_t>(kind)].flows;
}

}  // namespace

TEST(JobRunner, SortJobCompletesWithSaneResult) {
  kh::HadoopCluster cluster(test_config(), 11);
  const auto input = cluster.ensure_input(256 * kMiB);
  const auto spec = kw::make_spec(kw::Workload::kSort, input, 4);
  const auto result = cluster.run_job(spec);
  EXPECT_EQ(result.num_maps, 4u);       // 256 MiB / 64 MiB blocks
  EXPECT_EQ(result.num_reducers, 4u);
  EXPECT_GT(result.duration(), 0.0);
  EXPECT_GT(result.map_phase_end, result.submit_time);
  EXPECT_GE(result.shuffle_end, result.shuffle_start);
  EXPECT_GT(result.shuffle_start, 0.0);
  EXPECT_EQ(result.input_bytes, 256 * kMiB);
  // Identity map: map output ~ input (float truncation aside).
  EXPECT_NEAR(static_cast<double>(result.map_output_bytes),
              static_cast<double>(result.input_bytes), 1e4);
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e4);
  EXPECT_EQ(cluster.runner().running_jobs(), 0u);
  // All containers returned.
  EXPECT_EQ(cluster.scheduler().free_slots(), cluster.scheduler().total_slots());
}

TEST(JobRunner, SortTrafficDecomposition) {
  kh::HadoopCluster cluster(test_config(), 13);
  const auto input = cluster.ensure_input(512 * kMiB);
  cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 8));
  const auto trace = cluster.take_trace();
  ASSERT_GT(trace.size(), 0u);

  const double shuffle = class_bytes(trace, kn::FlowKind::kShuffle);
  const double write = class_bytes(trace, kn::FlowKind::kHdfsWrite);
  const double control = class_bytes(trace, kn::FlowKind::kControl);

  // Sort shuffles ~everything: network shuffle bytes are input minus the
  // host-local partitions (1/8 of hosts), so > half the input.
  EXPECT_GT(shuffle, 0.5 * 512 * kMiB);
  EXPECT_LT(shuffle, 1.1 * 512 * kMiB);
  // Replication 3 writes ~2 off-node copies of the output.
  EXPECT_GT(write, 1.2 * 512 * kMiB);
  EXPECT_LT(write, 2.2 * 512 * kMiB);
  // Control is a rounding error by volume.
  EXPECT_LT(control, 0.01 * shuffle);
  EXPECT_GT(class_flows(trace, kn::FlowKind::kControl), 0u);
}

TEST(JobRunner, GrepIsShuffleLight) {
  kh::HadoopCluster cluster(test_config(), 17);
  const auto input = cluster.ensure_input(512 * kMiB);
  cluster.run_job(kw::make_spec(kw::Workload::kGrep, input, 4));
  const auto trace = cluster.take_trace();
  const double shuffle = class_bytes(trace, kn::FlowKind::kShuffle);
  EXPECT_LT(shuffle, 0.01 * 512 * kMiB);
  // But shuffle flows still exist (header-only fetches of empty partitions).
  EXPECT_GT(class_flows(trace, kn::FlowKind::kShuffle), 0u);
}

TEST(JobRunner, ShuffleFlowCountIsOffHostMxR) {
  kh::HadoopCluster cluster(test_config(), 19);
  const auto input = cluster.ensure_input(512 * kMiB);  // 8 maps
  cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 6));
  const auto trace = cluster.take_trace();
  const auto shuffle_flows = class_flows(trace, kn::FlowKind::kShuffle);
  // M x R = 48 total fetches; host-local ones are invisible, so the network
  // sees somewhat fewer but the same order.
  EXPECT_LE(shuffle_flows, 48u);
  EXPECT_GE(shuffle_flows, 48u / 2);
}

TEST(JobRunner, ClassifierAgreesWithGroundTruth) {
  kh::HadoopCluster cluster(test_config(), 23);
  const auto input = cluster.ensure_input(256 * kMiB);
  cluster.run_job(kw::make_spec(kw::Workload::kNutchIndex, input, 4));
  const auto trace = cluster.take_trace();
  ASSERT_GT(trace.size(), 0u);
  for (const auto& r : trace.records()) {
    EXPECT_EQ(kc::classify_by_ports(r), r.truth)
        << trace.name(r.src_id) << ":" << r.src_port << " -> " << trace.name(r.dst_id) << ":"
        << r.dst_port;
  }
}

TEST(JobRunner, JobIdStampsAllJobFlows) {
  kh::HadoopCluster cluster(test_config(), 29);
  const auto input = cluster.ensure_input(128 * kMiB);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 2));
  const auto trace = cluster.take_trace();
  for (const auto& r : trace.records()) {
    if (r.truth == kn::FlowKind::kControl) {
      EXPECT_EQ(r.job_id, 0u);
    } else {
      EXPECT_EQ(r.job_id, result.job_id);
    }
  }
}

TEST(JobRunner, LateSlowstartSerializesShuffleAfterMaps) {
  auto run_with_slowstart = [](double slowstart) {
    kh::ClusterConfig cfg = test_config();
    cfg.slowstart = slowstart;
    kh::HadoopCluster cluster(cfg, 31);
    const auto input = cluster.ensure_input(512 * kMiB);
    return cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  };
  const auto eager = run_with_slowstart(0.05);
  const auto lazy = run_with_slowstart(1.0);
  // With slowstart=1.0 the shuffle cannot begin before the last map ends.
  EXPECT_GE(lazy.shuffle_start, lazy.map_phase_end - 1e-6);
  // With slowstart=0.05 it overlaps the map phase.
  EXPECT_LT(eager.shuffle_start, eager.map_phase_end);
}

TEST(JobRunner, MapOnlyJobWritesDirectly) {
  kh::HadoopCluster cluster(test_config(), 37);
  const auto input = cluster.ensure_input(256 * kMiB);
  auto spec = kw::make_spec(kw::Workload::kSort, input, 0);
  spec.num_reducers = 0;
  const auto result = cluster.run_job(spec);
  EXPECT_EQ(result.num_reducers, 0u);
  EXPECT_DOUBLE_EQ(result.shuffle_start, 0.0);
  const auto trace = cluster.take_trace();
  EXPECT_EQ(class_flows(trace, kn::FlowKind::kShuffle), 0u);
  EXPECT_GT(class_flows(trace, kn::FlowKind::kHdfsWrite), 0u);
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e4);
}

TEST(JobRunner, MostMapsReadLocally) {
  kh::HadoopCluster cluster(test_config(), 41);
  const auto input = cluster.ensure_input(512 * kMiB);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  // 8 maps, 3 replicas, 8 nodes with free slots: locality should be high.
  EXPECT_GE(result.maps_with_local_read, result.num_maps / 2);
}

TEST(JobRunner, LocalityOffIncreasesReadTraffic) {
  auto read_bytes = [](bool locality) {
    kh::ClusterConfig cfg = test_config();
    cfg.locality_scheduling = locality;
    kh::HadoopCluster cluster(cfg, 43);
    const auto input = cluster.ensure_input(512 * kMiB);
    cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
    return class_bytes(cluster.trace(), kn::FlowKind::kHdfsRead);
  };
  const double with_locality = read_bytes(true);
  const double without_locality = read_bytes(false);
  EXPECT_GT(without_locality, with_locality);
}

TEST(JobRunner, ControlPlaneQuietBetweenJobs) {
  kh::HadoopCluster cluster(test_config(), 47);
  const auto input = cluster.ensure_input(128 * kMiB);
  cluster.run_job(kw::make_spec(kw::Workload::kGrep, input, 2));
  const auto emitted_after_first = cluster.control().emitted();
  EXPECT_GT(emitted_after_first, 0u);
  EXPECT_FALSE(cluster.control().enabled());
  // The simulator is fully drained: no stray heartbeat events.
  EXPECT_EQ(cluster.simulator().pending(), 0u);
}

TEST(JobRunner, SequentialJobsProduceIndependentResults) {
  kh::HadoopCluster cluster(test_config(), 53);
  const auto input = cluster.ensure_input(256 * kMiB);
  const auto results = cluster.run_jobs({kw::make_spec(kw::Workload::kSort, input, 4),
                                         kw::make_spec(kw::Workload::kGrep, input, 4)});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].job_id, results[1].job_id);
  EXPECT_GE(results[1].submit_time, results[0].end_time);
  EXPECT_EQ(results[0].job_name, "sort");
  EXPECT_EQ(results[1].job_name, "grep");
}

TEST(JobRunner, EmptyInputThrows) {
  kh::HadoopCluster cluster(test_config(), 59);
  cluster.hdfs().ingest_file("empty", 0);
  auto spec = kw::make_spec(kw::Workload::kSort, "empty", 2);
  EXPECT_THROW(cluster.runner().submit(spec, nullptr), std::invalid_argument);
}

TEST(JobRunner, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    kh::HadoopCluster cluster(test_config(), 61);
    const auto input = cluster.ensure_input(256 * kMiB);
    cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
    return cluster.take_trace();
  };
  const auto a = run();
  const auto b = run();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].src_id, b[i].src_id);
    EXPECT_EQ(a[i].dst_id, b[i].dst_id);
    EXPECT_DOUBLE_EQ(a[i].bytes, b[i].bytes);
    EXPECT_DOUBLE_EQ(a[i].start, b[i].start);
    EXPECT_DOUBLE_EQ(a[i].end, b[i].end);
  }
}

TEST(Workloads, NamesRoundTrip) {
  for (const auto w : kw::all_workloads()) {
    EXPECT_EQ(kw::workload_from_name(kw::workload_name(w)), w);
  }
  EXPECT_THROW(kw::workload_from_name("hive"), std::invalid_argument);
}

TEST(Workloads, DefaultReducersScaleWithInput) {
  EXPECT_EQ(kw::default_reducers(1ull << 30), 4u);
  EXPECT_EQ(kw::default_reducers(4ull << 30), 16u);
  EXPECT_EQ(kw::default_reducers(100ull << 30), 64u);  // clamped
  EXPECT_EQ(kw::default_reducers(1ull << 20), 4u);     // floor
}

TEST(Workloads, ProfileShapesAreDistinct) {
  EXPECT_DOUBLE_EQ(kw::profile(kw::Workload::kSort).map_selectivity, 1.0);
  EXPECT_LT(kw::profile(kw::Workload::kGrep).map_selectivity, 0.01);
  EXPECT_GT(kw::profile(kw::Workload::kPageRank).map_selectivity, 1.0);
  EXPECT_GT(kw::profile(kw::Workload::kPageRank).partition_skew, 0.5);
}

// Tests for multi-file job inputs and iterative workload chains.
#include <gtest/gtest.h>

#include "hadoop/cluster.h"
#include "workloads/suite.h"

namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace kw = keddah::workloads;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

kh::ClusterConfig test_config() {
  kh::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  cfg.containers_per_node = 4;
  return cfg;
}

}  // namespace

TEST(MultiInput, SplitsSpanAllFiles) {
  kh::HadoopCluster cluster(test_config(), 301);
  cluster.hdfs().ingest_file("a", 128 * kMiB);  // 2 blocks
  cluster.hdfs().ingest_file("b", 192 * kMiB);  // 3 blocks
  kh::JobSpec spec = kw::make_spec(kw::Workload::kSort, "a", 2);
  spec.extra_inputs = {"b"};
  const auto result = cluster.run_job(spec);
  EXPECT_EQ(result.num_maps, 5u);
  EXPECT_EQ(result.input_bytes, 320 * kMiB);
  EXPECT_NEAR(static_cast<double>(result.output_bytes), 320.0 * kMiB, 1e5);
}

TEST(MultiInput, AllInputsHelper) {
  kh::JobSpec spec;
  spec.input_file = "x";
  spec.extra_inputs = {"y", "z"};
  EXPECT_EQ(spec.all_inputs(), (std::vector<std::string>{"x", "y", "z"}));
  kh::JobSpec bare;
  bare.extra_inputs = {"only"};
  EXPECT_EQ(bare.all_inputs(), (std::vector<std::string>{"only"}));
}

TEST(MultiInput, MissingExtraInputThrows) {
  kh::HadoopCluster cluster(test_config(), 303);
  cluster.hdfs().ingest_file("a", 64 * kMiB);
  kh::JobSpec spec = kw::make_spec(kw::Workload::kSort, "a", 2);
  spec.extra_inputs = {"missing"};
  EXPECT_THROW(cluster.runner().submit(spec, nullptr), std::out_of_range);
}

TEST(JobOutputs, ResultListsReducerParts) {
  kh::HadoopCluster cluster(test_config(), 305);
  const auto input = cluster.ensure_input(256 * kMiB);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 3));
  ASSERT_EQ(result.output_files.size(), 3u);
  std::uint64_t total = 0;
  for (const auto& name : result.output_files) {
    EXPECT_TRUE(cluster.hdfs().has_file(name)) << name;
    total += cluster.hdfs().file_by_name(name).bytes;
  }
  EXPECT_EQ(total, result.output_bytes);
}

TEST(JobOutputs, MapOnlyJobListsMapParts) {
  kh::HadoopCluster cluster(test_config(), 307);
  const auto input = cluster.ensure_input(256 * kMiB);
  auto spec = kw::make_spec(kw::Workload::kSort, input, 0);
  spec.num_reducers = 0;
  const auto result = cluster.run_job(spec);
  EXPECT_EQ(result.output_files.size(), result.num_maps);
}

TEST(Iterative, ChainsOutputsAsInputs) {
  kh::HadoopCluster cluster(test_config(), 309);
  const kw::JobEntry chain{kw::Workload::kPageRank, 256 * kMiB, 4, 0.0, 3};
  const auto results = kw::run_jobs(cluster, std::span(&chain, 1));
  ASSERT_EQ(results.size(), 3u);
  // PageRank iteration shape: out = 1.2 * 0.7 = 0.84x input per iteration.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(results[i].output_bytes, 0u);
    EXPECT_EQ(results[i].job_name, "pagerank_j0_i" + std::to_string(i));
    if (i > 0) {
      // Iteration i's input is iteration i-1's output.
      EXPECT_EQ(results[i].input_bytes, results[i - 1].output_bytes);
      EXPECT_GE(results[i].submit_time, results[i - 1].end_time);
    }
  }
  // Volumes shrink geometrically at 0.84x (within task noise).
  EXPECT_LT(results[2].output_bytes, results[0].output_bytes);
  // The cluster trace contains flows for all three distinct job ids.
  std::set<std::uint32_t> job_ids;
  for (const auto& r : cluster.trace().records()) {
    if (r.job_id != 0) job_ids.insert(r.job_id);
  }
  EXPECT_EQ(job_ids.size(), 3u);
}

TEST(Iterative, SingleIterationMatchesPlainJob) {
  kh::HadoopCluster cluster(test_config(), 311);
  const kw::JobEntry chain{kw::Workload::kSort, 256 * kMiB, 4, 0.0, 1};
  const auto results = kw::run_jobs(cluster, std::span(&chain, 1));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_NEAR(static_cast<double>(results[0].output_bytes), 256.0 * kMiB, 1e5);
}

TEST(Iterative, ZeroIterationsThrows) {
  kh::HadoopCluster cluster(test_config(), 313);
  const kw::JobEntry chain{kw::Workload::kSort, 64 * kMiB, 2, 0.0, 0};
  EXPECT_THROW(kw::run_jobs(cluster, std::span(&chain, 1)), std::invalid_argument);
}

TEST(Iterative, ManySmallPartsStillScheduleLocally) {
  // Iteration 2 reads 4 small part files; locality machinery must handle
  // many single-block files.
  kh::HadoopCluster cluster(test_config(), 315);
  const kw::JobEntry chain{kw::Workload::kSort, 512 * kMiB, 4, 0.0, 2};
  const auto results = kw::run_jobs(cluster, std::span(&chain, 1));
  // Iteration 2: inputs are 4 parts of ~128 MB -> >= 4 maps.
  EXPECT_GE(results[1].num_maps, 4u);
  EXPECT_GE(results[1].maps_with_local_read, results[1].num_maps / 2);
}

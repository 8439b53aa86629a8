// Tests for job-history logging and timing-based flow-to-job attribution
// (the paper's pcap/log correlation methodology, scored against ground
// truth).
#include <gtest/gtest.h>

#include <filesystem>

#include "hadoop/attribution.h"
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

TEST(JobLog, RecordsLifecycleEvents) {
  kh::HadoopCluster cluster(test_config(), 401);
  const auto input = cluster.ensure_input(256 * kMiB);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 3));
  const auto& log = cluster.history();
  ASSERT_FALSE(log.empty());

  const auto events = log.for_job(result.job_id);
  std::size_t map_starts = 0;
  std::size_t map_finishes = 0;
  std::size_t reduce_starts = 0;
  std::size_t reduce_finishes = 0;
  bool submit = false;
  bool finish = false;
  for (const auto& e : events) {
    switch (e.kind) {
      case kh::TaskEvent::Kind::kJobSubmit:
        submit = true;
        break;
      case kh::TaskEvent::Kind::kJobFinish:
        finish = true;
        break;
      case kh::TaskEvent::Kind::kMapStart:
        ++map_starts;
        break;
      case kh::TaskEvent::Kind::kMapFinish:
        ++map_finishes;
        break;
      case kh::TaskEvent::Kind::kReduceStart:
        ++reduce_starts;
        break;
      case kh::TaskEvent::Kind::kReduceFinish:
        ++reduce_finishes;
        break;
    }
  }
  EXPECT_TRUE(submit);
  EXPECT_TRUE(finish);
  EXPECT_EQ(map_starts, result.num_maps);
  EXPECT_EQ(map_finishes, result.num_maps);
  EXPECT_EQ(reduce_starts, 3u);
  EXPECT_EQ(reduce_finishes, 3u);

  double start = 0.0;
  double end = 0.0;
  ASSERT_TRUE(log.job_window(result.job_id, &start, &end));
  EXPECT_DOUBLE_EQ(start, result.submit_time);
  EXPECT_DOUBLE_EQ(end, result.end_time);
  EXPECT_FALSE(log.job_window(999, &start, &end));
}

TEST(JobLog, TaskActiveQueries) {
  kh::JobHistoryLog log;
  log.add({10.0, 1, kh::TaskEvent::Kind::kMapStart, kn::NodeId(5), 0});
  log.add({20.0, 1, kh::TaskEvent::Kind::kMapFinish, kn::NodeId(5), 0});
  EXPECT_TRUE(log.task_active_on(1, kn::NodeId(5), 15.0));
  EXPECT_TRUE(log.task_active_on(1, kn::NodeId(5), 9.8));    // within slack
  EXPECT_FALSE(log.task_active_on(1, kn::NodeId(5), 25.0));
  EXPECT_FALSE(log.task_active_on(1, kn::NodeId(6), 15.0));  // other node
  EXPECT_FALSE(log.task_active_on(2, kn::NodeId(5), 15.0));  // other job
  // Unfinished task counts as active after its start.
  log.add({30.0, 1, kh::TaskEvent::Kind::kReduceStart, kn::NodeId(5), 0});
  EXPECT_TRUE(log.task_active_on(1, kn::NodeId(5), 100.0));
}

TEST(JobLog, CsvRoundTrip) {
  kh::JobHistoryLog log;
  log.add({1.5, 7, kh::TaskEvent::Kind::kMapStart, kn::NodeId(3), 2});
  log.add({2.5, 7, kh::TaskEvent::Kind::kMapFinish, kn::NodeId(3), 2});
  const auto restored = kh::JobHistoryLog::from_csv(log.to_csv());
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_DOUBLE_EQ(restored.events()[0].time, 1.5);
  EXPECT_EQ(restored.events()[0].job_id, 7u);
  EXPECT_EQ(restored.events()[0].kind, kh::TaskEvent::Kind::kMapStart);
  EXPECT_EQ(restored.events()[0].node, 3u);
  EXPECT_EQ(restored.events()[0].task_index, 2u);
}

TEST(Attribution, SingleJobNearPerfect) {
  kh::HadoopCluster cluster(test_config(), 403);
  const auto input = cluster.ensure_input(512 * kMiB);
  cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  const auto trace = cluster.take_trace();
  const auto result = kh::attribute_flows(trace, cluster.history());
  EXPECT_GT(result.job_flows, 0u);
  // One job, endpoint evidence everywhere: high precision and recall.
  EXPECT_GT(result.precision(), 0.95);
  EXPECT_GT(result.recall(), 0.9);
}

TEST(Attribution, ControlFlowsLeftUnattributed) {
  kh::HadoopCluster cluster(test_config(), 405);
  const auto input = cluster.ensure_input(256 * kMiB);
  cluster.run_job(kw::make_spec(kw::Workload::kGrep, input, 2));
  const auto trace = cluster.take_trace();
  const auto result = kh::attribute_flows(trace, cluster.history());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (keddah::capture::classify_by_ports(trace[i]) == kn::FlowKind::kControl) {
      EXPECT_EQ(result.assigned[i], 0u);
    }
  }
}

TEST(Attribution, SeparatesConcurrentJobs) {
  // Two overlapping jobs: attribution must tell their flows apart from
  // timing + placement alone.
  const std::vector<kw::JobEntry> jobs = {
      {kw::Workload::kSort, 512 * kMiB, 4, 0.0},
      {kw::Workload::kWordCount, 512 * kMiB, 4, 3.0},
  };
  kh::HadoopCluster cluster(test_config(), 407);
  ASSERT_EQ(kw::run_jobs(cluster, jobs).size(), 2u);
  const auto trace = cluster.take_trace();
  const auto attribution = kh::attribute_flows(trace, cluster.history());
  EXPECT_GT(attribution.precision(), 0.85);
  EXPECT_GT(attribution.recall(), 0.75);
  // Both jobs receive attributed flows.
  std::set<std::uint32_t> seen;
  for (const auto id : attribution.assigned) {
    if (id != 0) seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 2u);
}

TEST(Attribution, EmptyInputs) {
  kh::JobHistoryLog log;
  const auto result = kh::attribute_flows(keddah::capture::Trace(), log);
  EXPECT_EQ(result.attributed, 0u);
  EXPECT_DOUBLE_EQ(result.precision(), 1.0);
  EXPECT_DOUBLE_EQ(result.recall(), 1.0);
}

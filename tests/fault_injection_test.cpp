// End-to-end fault-injection tests: transient outages with fetch
// retry/backoff recovery, fetch-failure-threshold map reruns, link
// degradation windows, slow-node injection, and the fault/recovery
// accounting surfaced through FaultStats.
#include <gtest/gtest.h>

#include <algorithm>

#include "hadoop/cluster.h"
#include "hadoop/faults.h"
#include "workloads/profiles.h"

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

/// Clean-run duration of the canonical test job, for timing injections.
double clean_duration(const kh::ClusterConfig& cfg, std::uint64_t seed,
                      std::uint64_t input_mib, std::size_t reducers) {
  kh::HadoopCluster cluster(cfg, seed);
  const auto input = cluster.ensure_input(input_mib * kMiB);
  return cluster.run_job(kw::make_spec(kw::Workload::kSort, input, reducers)).duration();
}

}  // namespace

// ------------------------------------------------------------ transient outage

TEST(TransientOutage, ShuffleRecoversThroughFetchRetries) {
  kh::ClusterConfig cfg = test_config();
  cfg.slowstart = 1.0;            // shuffle strictly after the map phase
  cfg.fetch_retry_initial_s = 0.5;
  const double clean = clean_duration(cfg, 73, 512, 4);

  kh::HadoopCluster cluster(cfg, 73);
  const auto input = cluster.ensure_input(512 * kMiB);
  const auto victim = cluster.workers()[3];
  // Outage spanning the middle of the job: fetches against the host fail,
  // back off, and succeed once it returns. Short enough that the
  // fetch-failure threshold is not reached.
  const double down_at = 0.45 * clean;
  const double outage_s = 2.0;
  cluster.simulator().schedule_at(down_at, [&] {
    cluster.fail_node_transient(victim, outage_s);
  });
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));

  // The job completed with every byte (no silent success, no hang).
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
  // Recovery went through the retry/backoff machinery and it is accounted.
  const auto stats = cluster.fault_stats();
  EXPECT_EQ(stats.outages, 1u);
  EXPECT_GT(stats.fetch_retries, 0u);
  EXPECT_GT(stats.fetch_backoff_s, 0.0);
  EXPECT_EQ(result.fetch_retries, stats.fetch_retries);
  EXPECT_GT(result.fetch_backoff_s, 0.0);
  // Zero flow bytes were sourced from the node while it was down: every
  // captured flow from it either ended by the outage start (aborted or
  // complete) or started after recovery.
  const double up_at = down_at + outage_s;
  for (const auto& r : cluster.trace().records()) {
    if (r.src_id != victim) continue;
    EXPECT_TRUE(r.end <= down_at + 1e-9 || r.start >= up_at - 1e-9)
        << r.src_id << " -> " << r.dst_id << " [" << r.start << ", " << r.end << "]";
  }
  // The node rejoined: the scheduler's capacity is back to full.
  EXPECT_TRUE(cluster.scheduler().node_up(victim));
  EXPECT_EQ(cluster.scheduler().free_slots(), cluster.scheduler().total_slots());
}

TEST(TransientOutage, LongOutageTripsFetchFailureThreshold) {
  kh::ClusterConfig cfg = test_config();
  cfg.fetch_retry_initial_s = 0.2;
  cfg.fetch_retry_cap_s = 0.5;     // fast retries reach the threshold quickly
  cfg.fetch_failure_threshold = 2;

  // From an identical clean run, find a map-output host the shuffle is about
  // to fetch from, and take it down just before that fetch starts. Runs are
  // deterministic, so the faulted run matches the probe up to that instant.
  kn::NodeId victim = kn::kInvalidNode;
  double down_at = 0.0;
  {
    kh::HadoopCluster probe(cfg, 79);
    const auto in = probe.ensure_input(512 * kMiB);
    probe.run_job(kw::make_spec(kw::Workload::kSort, in, 4));
    for (const auto& r : probe.trace().records()) {
      if (r.truth == kn::FlowKind::kShuffle && r.src_id != probe.master()) {
        victim = r.src_id;
        down_at = r.start - 1e-3;
        break;
      }
    }
  }
  ASSERT_NE(victim, kn::kInvalidNode);

  kh::HadoopCluster cluster(cfg, 79);
  const auto input = cluster.ensure_input(512 * kMiB);
  // Outage much longer than threshold x cap: the AM declares the victim's
  // map outputs lost and reruns them elsewhere instead of waiting it out.
  cluster.simulator().schedule_at(down_at, [&] {
    cluster.fail_node_transient(victim, 1e4);
  });
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));

  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
  const auto stats = cluster.fault_stats();
  EXPECT_GT(stats.fetch_retries, 0u);
  EXPECT_GT(stats.fetch_failure_reruns, 0u);
  EXPECT_GE(stats.map_reruns, stats.fetch_failure_reruns);
  EXPECT_EQ(result.fetch_failure_reruns, stats.fetch_failure_reruns);
}

TEST(TransientOutage, HeartbeatsResumeAfterRecovery) {
  kh::ClusterConfig cfg = test_config();
  kh::HadoopCluster cluster(cfg, 83);
  const auto input = cluster.ensure_input(512 * kMiB);
  const auto victim = cluster.workers()[6];
  const double down_at = 2.0;
  const double outage_s = 4.0;
  cluster.simulator().schedule_at(down_at, [&] {
    cluster.fail_node_transient(victim, outage_s);
  });
  cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  bool resumed = false;
  for (const auto& r : cluster.trace().records()) {
    if (r.truth != kn::FlowKind::kControl || r.src_id != victim) continue;
    // No heartbeat leaves the node inside the outage window...
    EXPECT_FALSE(r.start > down_at + 1e-9 && r.start < down_at + outage_s - 1e-9)
        << "heartbeat from down node at " << r.start;
    // ...but they come back afterwards.
    resumed |= r.start > down_at + outage_s;
  }
  EXPECT_TRUE(resumed);
}

TEST(TransientOutage, OutageKeepsHdfsReplicas) {
  // A transient outage must NOT trigger NameNode re-replication: the
  // replicas are still on disk and the node comes back.
  kh::HadoopCluster cluster(test_config(), 89);
  cluster.ensure_input(512 * kMiB);
  const auto victim = cluster.workers()[2];
  cluster.fail_node_transient(victim, 5.0);
  cluster.simulator().run();
  EXPECT_EQ(cluster.hdfs().rereplications(), 0u);
  EXPECT_EQ(cluster.hdfs().lost_blocks(), 0u);
  EXPECT_TRUE(cluster.scheduler().node_up(victim));
}

TEST(TransientOutage, CrashDuringOutageWindowStaysDown) {
  kh::HadoopCluster cluster(test_config(), 97);
  const auto input = cluster.ensure_input(512 * kMiB);
  // Pick a victim that actually holds a replica, so the escalated crash has
  // something to repair.
  kn::NodeId victim = kn::kInvalidNode;
  for (const auto& block : cluster.hdfs().file_by_name(input).blocks) {
    for (const auto replica : block.replicas) {
      if (replica != cluster.master()) victim = replica;
    }
    if (victim != kn::kInvalidNode) break;
  }
  ASSERT_NE(victim, kn::kInvalidNode);
  cluster.fail_node_transient(victim, 5.0);
  // The node crashes for good before its outage recovery fires.
  cluster.simulator().schedule_at(1.0, [&] { cluster.fail_node(victim); });
  cluster.simulator().run();
  // The crash escalated the outage: the node stays down past the scheduled
  // recovery, and its replicas (kept through the outage) are now repaired.
  EXPECT_FALSE(cluster.scheduler().node_up(victim));
  EXPECT_EQ(cluster.fault_stats().outages, 1u);
  EXPECT_EQ(cluster.fault_stats().crashes, 1u);
  EXPECT_GT(cluster.hdfs().rereplications(), 0u);
}

// ------------------------------------------------------------- degraded link

TEST(DegradedLink, WindowSlowsTheJobThenLifts) {
  kh::ClusterConfig cfg = test_config();
  const double clean = clean_duration(cfg, 101, 512, 4);

  kh::HadoopCluster cluster(cfg, 101);
  const auto input = cluster.ensure_input(512 * kMiB);
  // Cut one worker's access link to 5% for most of the job.
  cluster.simulator().schedule_at(0.0, [&] {
    cluster.degrade_link(cluster.workers()[1], 0.05, 2.0 * clean);
  });
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
  EXPECT_GT(result.duration(), 1.02 * clean);
  EXPECT_EQ(cluster.fault_stats().link_degradations, 1u);
}

TEST(DegradedLink, CapacityRestoresAfterWindow) {
  kh::HadoopCluster cluster(test_config(), 103);
  const auto node = cluster.workers()[1];
  const auto link = cluster.network().topology().links_at(node).front();
  const double nominal = cluster.network().topology().link(link).capacity.bps();
  cluster.degrade_link(node, 0.1, 3.0);
  EXPECT_NEAR(cluster.network().topology().link(link).capacity.bps(), 0.1 * nominal, 1.0);
  cluster.simulator().run();
  EXPECT_NEAR(cluster.network().topology().link(link).capacity.bps(), nominal, 1.0);
}

TEST(DegradedLink, BadParametersThrow) {
  kh::HadoopCluster cluster(test_config(), 107);
  EXPECT_THROW(cluster.degrade_link(cluster.workers()[1], 1.5, 1.0), std::invalid_argument);
  EXPECT_THROW(cluster.degrade_link(cluster.workers()[1], 0.5, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- slow node

TEST(SlowNode, InjectionStretchesComputeThenClears) {
  kh::ClusterConfig cfg = test_config();
  cfg.task_noise_sigma = 0.05;
  const double clean = clean_duration(cfg, 109, 512, 4);

  kh::HadoopCluster cluster(cfg, 109);
  const auto input = cluster.ensure_input(512 * kMiB);
  // Half the workers compute 10x slower for the whole job.
  cluster.simulator().schedule_at(0.0, [&] {
    for (std::size_t i = 1; i <= 4; ++i) {
      cluster.slow_node(cluster.workers()[i], 10.0, 10.0 * clean);
    }
  });
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
  EXPECT_GT(result.duration(), 1.2 * clean);
  EXPECT_EQ(cluster.fault_stats().slow_nodes, 4u);
}

TEST(SlowNode, BadFactorThrows) {
  kh::HadoopCluster cluster(test_config(), 113);
  EXPECT_THROW(cluster.slow_node(cluster.workers()[1], 0.5, 1.0), std::invalid_argument);
  EXPECT_THROW(cluster.slow_node(cluster.workers()[1], 2.0, 0.0), std::invalid_argument);
}

// ----------------------------------------------------------- fault plan wiring

TEST(FaultPlan, ScheduledPlanDrivesInjections) {
  kh::ClusterConfig cfg = test_config();
  kh::HadoopCluster cluster(cfg, 127);
  const auto input = cluster.ensure_input(512 * kMiB);
  kh::FaultPlan plan;
  plan.events.push_back({kh::FaultKind::kOutage, 3, 4.0, 3.0, 0.0});
  plan.events.push_back({kh::FaultKind::kSlowNode, 1, 0.0, 60.0, 4.0});
  cluster.schedule_fault_plan(plan);
  const auto result = cluster.run_job(kw::make_spec(kw::Workload::kSort, input, 4));
  EXPECT_NEAR(static_cast<double>(result.output_bytes),
              static_cast<double>(result.input_bytes), 1e5);
  const auto stats = cluster.fault_stats();
  EXPECT_EQ(stats.outages, 1u);
  EXPECT_EQ(stats.slow_nodes, 1u);
}

TEST(FaultPlan, OutOfRangePlanThrows) {
  kh::HadoopCluster cluster(test_config(), 131);
  kh::FaultPlan plan;
  plan.events.push_back({kh::FaultKind::kCrash, 99, 1.0, 0.0, 0.0});
  EXPECT_THROW(cluster.schedule_fault_plan(plan), std::invalid_argument);
}

TEST(FaultPlan, KindNamesRoundTrip) {
  for (const auto kind : {kh::FaultKind::kCrash, kh::FaultKind::kOutage,
                          kh::FaultKind::kDegradeLink, kh::FaultKind::kSlowNode}) {
    EXPECT_EQ(kh::fault_kind_from_name(kh::fault_kind_name(kind)), kind);
  }
  EXPECT_THROW(kh::fault_kind_from_name("flood"), std::invalid_argument);
}

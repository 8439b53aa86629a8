// Unit tests for the HDFS model: block splitting, rack-aware placement,
// replication-pipeline traffic, and locality-aware reads.
#include <gtest/gtest.h>

#include <set>

#include "capture/collector.h"
#include "hadoop/hdfs.h"
#include "net/network.h"

namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace kc = keddah::capture;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

struct HdfsHarness {
  ks::Simulator sim;
  kh::ClusterConfig config;
  std::unique_ptr<kn::Network> net;
  std::unique_ptr<kc::FlowCollector> collector;
  std::unique_ptr<kh::HdfsCluster> hdfs;

  explicit HdfsHarness(kh::ClusterConfig cfg = {}, std::uint64_t seed = 1) : config(cfg) {
    net = std::make_unique<kn::Network>(sim, config.build_topology());
    collector = std::make_unique<kc::FlowCollector>(*net);
    hdfs = std::make_unique<kh::HdfsCluster>(*net, net->topology().hosts(), config,
                                             ku::Rng(seed));
  }
};

kh::ClusterConfig small_config() {
  kh::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  return cfg;
}

}  // namespace

TEST(Hdfs, SplitBlocksExactAndRemainder) {
  HdfsHarness h(small_config());
  const auto exact = h.hdfs->split_blocks(128ull << 20);
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_EQ(exact[0], 64ull << 20);
  EXPECT_EQ(exact[1], 64ull << 20);
  const auto ragged = h.hdfs->split_blocks((64ull << 20) + 1000);
  ASSERT_EQ(ragged.size(), 2u);
  EXPECT_EQ(ragged[1], 1000u);
  EXPECT_TRUE(h.hdfs->split_blocks(0).empty());
}

TEST(Hdfs, IngestPlacesReplicationReplicas) {
  HdfsHarness h(small_config());
  const auto id = h.hdfs->ingest_file("f", 256ull << 20);
  const auto& info = h.hdfs->file(id);
  EXPECT_EQ(info.blocks.size(), 4u);
  for (const auto& block : info.blocks) {
    EXPECT_EQ(block.replicas.size(), 3u);
    // Replicas are distinct nodes.
    std::set<kn::NodeId> uniq(block.replicas.begin(), block.replicas.end());
    EXPECT_EQ(uniq.size(), block.replicas.size());
  }
}

TEST(Hdfs, PlacementSpansTwoRacks) {
  HdfsHarness h(small_config());
  const auto id = h.hdfs->ingest_file("f", 1024ull << 20);
  const auto& topo = h.net->topology();
  for (const auto& block : h.hdfs->file(id).blocks) {
    std::set<int> racks;
    for (const auto r : block.replicas) racks.insert(topo.node(r).rack);
    // Standard policy: exactly two racks for 3 replicas.
    EXPECT_EQ(racks.size(), 2u);
    // Second and third replica share a rack.
    EXPECT_TRUE(topo.same_rack(block.replicas[1], block.replicas[2]));
    EXPECT_FALSE(topo.same_rack(block.replicas[0], block.replicas[1]));
  }
}

TEST(Hdfs, ReplicationCappedByClusterSize) {
  kh::ClusterConfig cfg = small_config();
  cfg.racks = 1;
  cfg.hosts_per_rack = 2;
  cfg.replication = 3;
  HdfsHarness h(cfg);
  const auto id = h.hdfs->ingest_file("f", 64ull << 20);
  EXPECT_EQ(h.hdfs->file(id).blocks[0].replicas.size(), 2u);
}

TEST(Hdfs, IngestGeneratesNoTraffic) {
  HdfsHarness h(small_config());
  h.hdfs->ingest_file("f", 512ull << 20);
  h.sim.run();
  EXPECT_EQ(h.collector->trace().size(), 0u);
}

TEST(Hdfs, DuplicateNameThrows) {
  HdfsHarness h(small_config());
  h.hdfs->ingest_file("f", 1 << 20);
  EXPECT_THROW(h.hdfs->ingest_file("f", 1 << 20), std::invalid_argument);
  EXPECT_TRUE(h.hdfs->has_file("f"));
  EXPECT_FALSE(h.hdfs->has_file("g"));
  EXPECT_THROW(h.hdfs->file_by_name("g"), std::out_of_range);
  EXPECT_THROW(h.hdfs->file(kh::FileId(999)), std::out_of_range);
}

TEST(Hdfs, WritePipelineEmitsReplicationFlows) {
  HdfsHarness h(small_config());
  const auto writer = h.net->topology().find("h0");
  bool done = false;
  h.hdfs->write_file("out", 64ull << 20, writer, 7, [&] { done = true; });
  h.sim.run();
  EXPECT_TRUE(done);
  const auto& trace = h.collector->trace();
  // One block, 3 replicas: writer->r1 is loopback (writer is a DataNode so
  // replica 1 is local), r1->r2 and r2->r3 cross the network.
  EXPECT_EQ(trace.size(), 2u);
  for (const auto& r : trace.records()) {
    EXPECT_EQ(kc::classify_by_ports(r), kn::FlowKind::kHdfsWrite);
    EXPECT_EQ(r.truth, kn::FlowKind::kHdfsWrite);
    EXPECT_EQ(r.job_id, 7u);
    EXPECT_DOUBLE_EQ(r.bytes, static_cast<double>(64ull << 20));
  }
}

TEST(Hdfs, WriteTrafficScalesWithReplication) {
  double bytes_by_repl[4] = {0, 0, 0, 0};
  for (const std::uint32_t repl : {1u, 2u, 3u}) {
    kh::ClusterConfig cfg = small_config();
    cfg.replication = repl;
    HdfsHarness h(cfg);
    const auto writer = h.net->topology().find("h0");
    h.hdfs->write_file("out", 256ull << 20, writer, 1, nullptr);
    h.sim.run();
    bytes_by_repl[repl] = h.collector->trace().total_bytes();
  }
  // Replication 1: all-local write, zero network bytes.
  EXPECT_DOUBLE_EQ(bytes_by_repl[1], 0.0);
  // Each extra replica adds one full copy of the file on the wire.
  EXPECT_NEAR(bytes_by_repl[2], 256.0 * (1 << 20), 1.0);
  EXPECT_NEAR(bytes_by_repl[3], 512.0 * (1 << 20), 1.0);
}

TEST(Hdfs, WriteBlocksAreSequential) {
  HdfsHarness h(small_config());
  const auto writer = h.net->topology().find("h0");
  h.hdfs->write_file("out", 128ull << 20, writer, 1, nullptr);
  h.sim.run();
  const auto& recs = h.collector->trace().records();
  ASSERT_EQ(recs.size(), 4u);  // 2 blocks x 2 network stages
  // The second block's flows start only after the first block's flows end.
  const double first_block_end = std::max(recs[0].end, recs[1].end);
  for (std::size_t i = 2; i < 4; ++i) EXPECT_GE(recs[i].start, first_block_end - 1e-9);
}

TEST(Hdfs, EmptyFileCompletesWithoutTraffic) {
  HdfsHarness h(small_config());
  bool done = false;
  h.hdfs->write_file("out", 0, h.net->topology().find("h0"), 1, [&] { done = true; });
  h.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.collector->trace().size(), 0u);
}

TEST(Hdfs, LocalReadIsInvisibleToCapture) {
  HdfsHarness h(small_config());
  const auto id = h.hdfs->ingest_file("f", 64ull << 20);
  const auto local = h.hdfs->file(id).blocks[0].replicas[0];
  bool done = false;
  h.hdfs->read_block(id, 0, local, 1, [&] { done = true; });
  h.sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(h.collector->trace().size(), 0u);
  EXPECT_EQ(h.collector->dropped_loopback(), 1u);
}

TEST(Hdfs, RemoteReadEmitsHdfsReadFlow) {
  HdfsHarness h(small_config());
  const auto id = h.hdfs->ingest_file("f", 64ull << 20);
  const auto& replicas = h.hdfs->file(id).blocks[0].replicas;
  // Find a node that holds no replica.
  kn::NodeId reader = kn::kInvalidNode;
  for (const auto host : h.net->topology().hosts()) {
    if (std::find(replicas.begin(), replicas.end(), host) == replicas.end()) {
      reader = host;
      break;
    }
  }
  ASSERT_NE(reader, kn::kInvalidNode);
  bool done = false;
  h.hdfs->read_block(id, 0, reader, 3, [&] { done = true; });
  h.sim.run();
  EXPECT_TRUE(done);
  const auto& trace = h.collector->trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(kc::classify_by_ports(trace[0]), kn::FlowKind::kHdfsRead);
  EXPECT_EQ(trace[0].dst_id, reader);
  EXPECT_EQ(trace[0].job_id, 3u);
}

TEST(Hdfs, RemoteReadPrefersRackLocalReplica) {
  // Place many files; whenever the reader is rack-local (but not node-local)
  // to some replica, the read source must be in the reader's rack.
  HdfsHarness h(small_config(), 42);
  const auto& topo = h.net->topology();
  const auto id = h.hdfs->ingest_file("f", 1024ull << 20);  // 16 blocks
  const auto& blocks = h.hdfs->file(id).blocks;
  std::size_t checked = 0;
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    // Pick a reader in the same rack as a replica but not holding one.
    for (const auto host : topo.hosts()) {
      const auto& reps = blocks[b].replicas;
      if (std::find(reps.begin(), reps.end(), host) != reps.end()) continue;
      const bool rack_local = std::any_of(reps.begin(), reps.end(), [&](kn::NodeId r) {
        return topo.same_rack(r, host);
      });
      if (!rack_local) continue;
      h.hdfs->read_block(id, b, host, 1, nullptr);
      ++checked;
      break;
    }
  }
  ASSERT_GT(checked, 0u);
  h.sim.run();
  for (const auto& r : h.collector->trace().records()) {
    EXPECT_TRUE(topo.same_rack(r.src_id, r.dst_id))
        << topo.node(r.src_id).name << " -> " << topo.node(r.dst_id).name
        << " should be rack-local";
  }
}

TEST(Hdfs, IsLocalMatchesPlacement) {
  HdfsHarness h(small_config());
  const auto id = h.hdfs->ingest_file("f", 64ull << 20);
  const auto& replicas = h.hdfs->file(id).blocks[0].replicas;
  for (const auto host : h.net->topology().hosts()) {
    const bool expected =
        std::find(replicas.begin(), replicas.end(), host) != replicas.end();
    EXPECT_EQ(h.hdfs->is_local(id, 0, host), expected);
  }
}

TEST(Hdfs, BadBlockIndexThrows) {
  HdfsHarness h(small_config());
  const auto id = h.hdfs->ingest_file("f", 64ull << 20);
  EXPECT_THROW(h.hdfs->read_block(id, 5, h.net->topology().find("h0"), 1, nullptr),
               std::out_of_range);
}

// Unit tests for the node-pair traffic matrix.
#include <gtest/gtest.h>

#include "capture/matrix.h"
#include "net/topology.h"

namespace kc = keddah::capture;
namespace kn = keddah::net;

namespace {

kc::FlowRecord rec(std::size_t src, std::size_t dst, double bytes,
                   std::uint16_t src_port = kn::ports::kShuffle, std::uint16_t dst_port = 40000) {
  kc::FlowRecord r;
  r.src_id = static_cast<kn::NodeId>(src);
  r.dst_id = static_cast<kn::NodeId>(dst);
  r.bytes = bytes;
  r.src_port = src_port;
  r.dst_port = dst_port;
  return r;
}

}  // namespace

TEST(TrafficMatrix, AggregatesPairBytes) {
  kc::Trace trace;
  trace.add(rec(0, 1, 100));
  trace.add(rec(0, 1, 50));
  trace.add(rec(1, 0, 30));
  const auto m = kc::TrafficMatrix::from_trace(trace, 3);
  EXPECT_DOUBLE_EQ(m.bytes(0, 1), 150.0);
  EXPECT_DOUBLE_EQ(m.bytes(1, 0), 30.0);
  EXPECT_DOUBLE_EQ(m.bytes(2, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.total(), 180.0);
}

TEST(TrafficMatrix, TxRxSums) {
  kc::Trace trace;
  trace.add(rec(0, 1, 100));
  trace.add(rec(0, 2, 200));
  trace.add(rec(1, 0, 10));
  const auto m = kc::TrafficMatrix::from_trace(trace, 3);
  EXPECT_DOUBLE_EQ(m.tx_bytes(0), 300.0);
  EXPECT_DOUBLE_EQ(m.rx_bytes(0), 10.0);
  EXPECT_DOUBLE_EQ(m.rx_bytes(2), 200.0);
  EXPECT_DOUBLE_EQ(m.tx_bytes(2), 0.0);
}

TEST(TrafficMatrix, ClassFilteredView) {
  kc::Trace trace;
  trace.add(rec(0, 1, 100, kn::ports::kShuffle, 40000));            // shuffle
  trace.add(rec(0, 1, 999, 40000, kn::ports::kDataNodeXfer));       // hdfs write
  const auto shuffle = kc::TrafficMatrix::from_trace(trace, 2, kn::FlowKind::kShuffle);
  EXPECT_DOUBLE_EQ(shuffle.total(), 100.0);
  const auto write = kc::TrafficMatrix::from_trace(trace, 2, kn::FlowKind::kHdfsWrite);
  EXPECT_DOUBLE_EQ(write.total(), 999.0);
}

TEST(TrafficMatrix, ImbalanceMetric) {
  kc::Trace balanced;
  balanced.add(rec(0, 1, 100));
  balanced.add(rec(1, 0, 100));
  EXPECT_NEAR(kc::TrafficMatrix::from_trace(balanced, 2).imbalance(), 1.0, 1e-9);

  kc::Trace skewed;
  skewed.add(rec(0, 1, 1000));
  skewed.add(rec(2, 3, 10));
  const auto m = kc::TrafficMatrix::from_trace(skewed, 4);
  EXPECT_GT(m.imbalance(), 1.5);
}

TEST(TrafficMatrix, EmptyMatrix) {
  const auto m = kc::TrafficMatrix::from_trace(kc::Trace(), 4);
  EXPECT_DOUBLE_EQ(m.total(), 0.0);
  EXPECT_DOUBLE_EQ(m.imbalance(), 0.0);
  EXPECT_TRUE(m.hottest_pairs(5).empty());
}

TEST(TrafficMatrix, CrossRackFraction) {
  const auto topo = kn::make_rack_tree(2, 2, 1e9, 1e10, 0.0);
  // Hosts: h0,h1 rack 0 (node ids 2,3); h2,h3 rack 1 (ids 5,6).
  const auto hosts = topo.hosts();
  kc::Trace trace;
  trace.add(rec(hosts[0], hosts[1], 100));  // intra-rack
  trace.add(rec(hosts[0], hosts[2], 300));  // cross-rack
  const auto m = kc::TrafficMatrix::from_trace(trace, topo.num_nodes());
  EXPECT_NEAR(m.cross_rack_fraction(topo), 0.75, 1e-9);
}

TEST(TrafficMatrix, HottestPairsSorted) {
  kc::Trace trace;
  trace.add(rec(0, 1, 10));
  trace.add(rec(1, 2, 300));
  trace.add(rec(2, 3, 100));
  const auto pairs = kc::TrafficMatrix::from_trace(trace, 4).hottest_pairs(2);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0].src, 1u);
  EXPECT_DOUBLE_EQ(pairs[0].bytes, 300.0);
  EXPECT_DOUBLE_EQ(pairs[1].bytes, 100.0);
}

TEST(TrafficMatrix, OutOfRangeThrows) {
  kc::Trace trace;
  trace.add(rec(5, 1, 10));
  EXPECT_THROW(kc::TrafficMatrix::from_trace(trace, 3), std::out_of_range);
  const auto m = kc::TrafficMatrix::from_trace(kc::Trace(), 2);
  EXPECT_THROW(m.bytes(2, 0), std::out_of_range);
  EXPECT_THROW(m.tx_bytes(9), std::out_of_range);
}

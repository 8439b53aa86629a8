// Unit tests for the capture library: port classification, trace filtering
// and aggregation, CSV round-trips, throughput series, collector options.
#include <gtest/gtest.h>

#include <cstdio>

#include "capture/collector.h"
#include "capture/trace.h"
#include "net/network.h"

namespace kc = keddah::capture;
namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

kc::FlowRecord make_record(std::uint16_t src_port, std::uint16_t dst_port, double bytes = 1000.0,
                           double start = 0.0, double end = 1.0, std::uint32_t job = 1) {
  kc::FlowRecord r;
  r.src = "h0";
  r.dst = "h1";
  r.src_id = kn::NodeId(0);
  r.dst_id = kn::NodeId(1);
  r.src_port = src_port;
  r.dst_port = dst_port;
  r.bytes = bytes;
  r.start = start;
  r.end = end;
  r.job_id = job;
  return r;
}

}  // namespace

TEST(Classifier, HdfsReadBySourcePort) {
  EXPECT_EQ(kc::classify_by_ports(make_record(kn::ports::kDataNodeXfer, 40000)),
            kn::FlowKind::kHdfsRead);
}

TEST(Classifier, HdfsWriteByDestinationPort) {
  EXPECT_EQ(kc::classify_by_ports(make_record(40000, kn::ports::kDataNodeXfer)),
            kn::FlowKind::kHdfsWrite);
}

TEST(Classifier, ShuffleEitherDirection) {
  EXPECT_EQ(kc::classify_by_ports(make_record(kn::ports::kShuffle, 40000)),
            kn::FlowKind::kShuffle);
  EXPECT_EQ(kc::classify_by_ports(make_record(40000, kn::ports::kShuffle)),
            kn::FlowKind::kShuffle);
}

TEST(Classifier, ControlPorts) {
  EXPECT_EQ(kc::classify_by_ports(make_record(40000, kn::ports::kNameNodeRpc)),
            kn::FlowKind::kControl);
  EXPECT_EQ(kc::classify_by_ports(make_record(40000, kn::ports::kRmScheduler)),
            kn::FlowKind::kControl);
  EXPECT_EQ(kc::classify_by_ports(make_record(kn::ports::kRmTracker, 40000)),
            kn::FlowKind::kControl);
}

TEST(Classifier, UnknownPortsAreOther) {
  EXPECT_EQ(kc::classify_by_ports(make_record(40000, 40001)), kn::FlowKind::kOther);
}

TEST(Classifier, DataPortBeatsControlPort) {
  // A DataNode flow towards the NameNode RPC port is still HDFS traffic.
  EXPECT_EQ(kc::classify_by_ports(make_record(kn::ports::kDataNodeXfer, kn::ports::kNameNodeRpc)),
            kn::FlowKind::kHdfsRead);
}

TEST(Trace, FilterByKindAndJob) {
  kc::Trace trace;
  trace.add(make_record(kn::ports::kShuffle, 40000, 100, 0, 1, 1));
  trace.add(make_record(kn::ports::kShuffle, 40000, 200, 0, 1, 2));
  trace.add(make_record(kn::ports::kDataNodeXfer, 40000, 300, 0, 1, 1));
  EXPECT_EQ(trace.filter_kind(kn::FlowKind::kShuffle).size(), 2u);
  EXPECT_EQ(trace.filter_kind(kn::FlowKind::kHdfsRead).size(), 1u);
  EXPECT_EQ(trace.filter_job(1).size(), 2u);
  EXPECT_EQ(trace.filter_job(9).size(), 0u);
}

TEST(Trace, FilterWindow) {
  kc::Trace trace;
  trace.add(make_record(1, 2, 10, 0.5, 1.0));
  trace.add(make_record(1, 2, 10, 1.5, 2.0));
  trace.add(make_record(1, 2, 10, 2.5, 3.0));
  EXPECT_EQ(trace.filter_window(1.0, 2.0).size(), 1u);
  EXPECT_EQ(trace.filter_window(0.0, 10.0).size(), 3u);
}

TEST(Trace, AggregatesAndBounds) {
  kc::Trace trace;
  trace.add(make_record(1, 2, 100, 1.0, 2.0));
  trace.add(make_record(1, 2, 250, 0.5, 3.5));
  EXPECT_DOUBLE_EQ(trace.total_bytes(), 350.0);
  EXPECT_DOUBLE_EQ(trace.first_start(), 0.5);
  EXPECT_DOUBLE_EQ(trace.last_end(), 3.5);
  EXPECT_EQ(trace.sizes(), (std::vector<double>{100.0, 250.0}));
  EXPECT_EQ(trace.durations(), (std::vector<double>{1.0, 3.0}));
}

TEST(Trace, ClassStats) {
  kc::Trace trace;
  trace.add(make_record(kn::ports::kShuffle, 40000, 100));
  trace.add(make_record(kn::ports::kShuffle, 40000, 200));
  trace.add(make_record(40000, kn::ports::kDataNodeXfer, 1000));
  const auto stats = trace.class_stats();
  EXPECT_EQ(stats[static_cast<std::size_t>(kn::FlowKind::kShuffle)].flows, 2u);
  EXPECT_DOUBLE_EQ(stats[static_cast<std::size_t>(kn::FlowKind::kShuffle)].bytes, 300.0);
  EXPECT_EQ(stats[static_cast<std::size_t>(kn::FlowKind::kHdfsWrite)].flows, 1u);
}

TEST(Trace, ThroughputSeriesSmearsUniformly) {
  kc::Trace trace;
  // 1000 bytes over [0, 2): 500 per 1-second bin.
  trace.add(make_record(1, 2, 1000, 0.0, 2.0));
  const auto series = trace.throughput_series(1.0);
  ASSERT_GE(series.size(), 2u);
  EXPECT_NEAR(series[0], 500.0, 1e-9);
  EXPECT_NEAR(series[1], 500.0, 1e-9);
  double total = 0.0;
  for (const double b : series) total += b;
  EXPECT_NEAR(total, 1000.0, 1e-9);
}

TEST(Trace, ThroughputSeriesHandlesInstantFlows) {
  kc::Trace trace;
  trace.add(make_record(1, 2, 42.0, 1.0, 1.0));  // zero duration
  const auto series = trace.throughput_series(0.5);
  double total = 0.0;
  for (const double b : series) total += b;
  EXPECT_NEAR(total, 42.0, 1e-9);
}

TEST(Trace, CsvRoundTrip) {
  kc::Trace trace;
  auto r = make_record(kn::ports::kShuffle, 40000, 12345.5, 1.25, 6.5, 42);
  r.truth = kn::FlowKind::kShuffle;
  trace.add(r);
  const auto csv = trace.to_csv();
  const auto restored = kc::Trace::from_csv(csv);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored[0].src, "h0");
  EXPECT_EQ(restored[0].src_port, kn::ports::kShuffle);
  EXPECT_NEAR(restored[0].bytes, 12345.5, 0.01);
  EXPECT_NEAR(restored[0].start, 1.25, 1e-9);
  EXPECT_EQ(restored[0].job_id, 42u);
  EXPECT_EQ(restored[0].truth, kn::FlowKind::kShuffle);
}

TEST(Trace, SaveLoadFile) {
  kc::Trace trace;
  trace.add(make_record(1, 2, 10, 0, 1));
  const std::string path = ::testing::TempDir() + "/keddah_trace_test.csv";
  trace.save(path);
  const auto loaded = kc::Trace::load(path);
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
}

TEST(Trace, AppendConcatenates) {
  kc::Trace a;
  a.add(make_record(1, 2, 10));
  kc::Trace b;
  b.add(make_record(1, 2, 20));
  b.add(make_record(1, 2, 30));
  a.append(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.total_bytes(), 60.0);
}

TEST(Collector, RecordsNetworkFlowsWithMetadata) {
  ks::Simulator sim;
  kn::Network net(sim, kn::make_star(3, 1e9, 0.0));
  kc::FlowCollector collector(net);
  kn::FlowMeta meta;
  meta.src_port = kn::ports::kShuffle;
  meta.dst_port = 45000;
  meta.job_id = 5;
  meta.kind = kn::FlowKind::kShuffle;
  const auto& topo = net.topology();
  net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(5000.0), meta, nullptr);
  sim.run();
  const auto& trace = collector.trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].src, "h0");
  EXPECT_EQ(trace[0].dst, "h1");
  EXPECT_EQ(trace[0].job_id, 5u);
  EXPECT_DOUBLE_EQ(trace[0].bytes, 5000.0);
  EXPECT_GT(trace[0].end, trace[0].start);
}

TEST(Collector, LoopbackDroppedByDefaultIncludedOnRequest) {
  ks::Simulator sim;
  kn::Network net(sim, kn::make_star(2, 1e9, 0.0));
  kc::CollectorOptions include;
  include.include_loopback = true;
  kc::FlowCollector drops(net);
  kc::FlowCollector keeps(net, include);
  const auto& topo = net.topology();
  net.start_flow(topo.find("h0"), topo.find("h0"), ku::Bytes(100.0), {}, nullptr);
  sim.run();
  EXPECT_EQ(drops.trace().size(), 0u);
  EXPECT_EQ(drops.dropped_loopback(), 1u);
  EXPECT_EQ(keeps.trace().size(), 1u);
}

TEST(Collector, ControlExcludedOnRequest) {
  ks::Simulator sim;
  kn::Network net(sim, kn::make_star(3, 1e9, 0.0));
  kc::CollectorOptions opts;
  opts.include_control = false;
  kc::FlowCollector collector(net, opts);
  kn::FlowMeta control;
  control.kind = kn::FlowKind::kControl;
  control.dst_port = kn::ports::kRmTracker;
  const auto& topo = net.topology();
  net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(100.0), control, nullptr);
  net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(100.0), {}, nullptr);
  sim.run();
  EXPECT_EQ(collector.trace().size(), 1u);
}

TEST(Collector, TakeResetsState) {
  ks::Simulator sim;
  kn::Network net(sim, kn::make_star(3, 1e9, 0.0));
  kc::FlowCollector collector(net);
  const auto& topo = net.topology();
  net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(100.0), {}, nullptr);
  sim.run();
  const auto taken = collector.take();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_EQ(collector.trace().size(), 0u);
}

// Unit tests for the capture library: port classification, trace filtering
// and aggregation, CSV round-trips and rejections, throughput series,
// collector options and the shared name table.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

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

/// An empty trace naming node 0 "h0" and node 1 "h1".
kc::Trace named_trace() {
  return kc::Trace(
      std::make_shared<const std::vector<std::string>>(std::vector<std::string>{"h0", "h1"}));
}

/// A 3-flow capture on a 2x2 rack tree, taken through the collector.
kc::Trace captured_trace() {
  ks::Simulator sim;
  kn::Network net(sim, kn::make_rack_tree(2, 2, 1e9, 10e9, 1e-4));
  kc::FlowCollector collector(net);
  const auto hosts = net.topology().hosts();
  kn::FlowMeta meta;
  meta.src_port = kn::ports::kShuffle;
  meta.dst_port = 45000;
  meta.kind = kn::FlowKind::kShuffle;
  net.start_flow(hosts[0], hosts[3], ku::Bytes(5000.0), meta, nullptr);
  meta.src_port = kn::ports::kDataNodeXfer;
  meta.kind = kn::FlowKind::kHdfsRead;
  net.start_flow(hosts[2], hosts[1], ku::Bytes(1.0 / 3.0), meta, nullptr);
  meta.job_id = 7;
  net.start_flow(hosts[1], hosts[2], ku::Bytes(123456789.0), meta, nullptr);
  sim.run();
  return collector.take();
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
  kc::Trace trace = named_trace();
  auto r = make_record(kn::ports::kShuffle, 40000, 12345.5, 1.25, 6.5, 42);
  r.truth = kn::FlowKind::kShuffle;
  trace.add(r);
  const auto csv = trace.to_csv();
  const auto restored = kc::Trace::from_csv(csv);
  ASSERT_EQ(restored.size(), 1u);
  EXPECT_EQ(restored.name(restored[0].src_id), "h0");
  EXPECT_EQ(restored.name(restored[0].dst_id), "h1");
  EXPECT_EQ(restored[0].src_port, kn::ports::kShuffle);
  EXPECT_NEAR(restored[0].bytes, 12345.5, 0.01);
  EXPECT_NEAR(restored[0].start, 1.25, 1e-9);
  EXPECT_EQ(restored[0].job_id, 42u);
  EXPECT_EQ(restored[0].truth, kn::FlowKind::kShuffle);
}

TEST(Trace, SaveLoadFile) {
  kc::Trace trace = named_trace();
  trace.add(make_record(1, 2, 10, 0, 1));
  const std::string path = ::testing::TempDir() + "/keddah_trace_test.csv";
  trace.save(path);
  const auto loaded = kc::Trace::load(path);
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());
}

// A collector-captured trace survives save -> load: the same records (CSV
// rounds bytes to 3 and times to 9 decimals) and the same name for every id
// that occurs, though the loaded table covers only those ids.
TEST(Trace, CapturedTraceSaveLoadKeepsRecordsAndNames) {
  const kc::Trace trace = captured_trace();
  ASSERT_EQ(trace.size(), 3u);
  const std::string path = ::testing::TempDir() + "/keddah_captured_trace.csv";
  trace.save(path);
  const kc::Trace loaded = kc::Trace::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), trace.size());
  for (std::size_t i = 0; i < trace.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const auto& a = trace[i];
    const auto& b = loaded[i];
    EXPECT_EQ(b.src_id, a.src_id);
    EXPECT_EQ(b.dst_id, a.dst_id);
    EXPECT_EQ(b.src_port, a.src_port);
    EXPECT_EQ(b.dst_port, a.dst_port);
    EXPECT_NEAR(b.bytes, a.bytes, 5e-4);
    EXPECT_NEAR(b.start, a.start, 5e-10);
    EXPECT_NEAR(b.end, a.end, 5e-10);
    EXPECT_EQ(b.job_id, a.job_id);
    EXPECT_EQ(b.truth, a.truth);
    EXPECT_EQ(loaded.name(b.src_id), trace.name(a.src_id));
    EXPECT_EQ(loaded.name(b.dst_id), trace.name(a.dst_id));
  }
  // Saving the loaded trace writes the same bytes: nothing in the CSV
  // depends on how many nodes the name table lists.
  std::ostringstream first;
  std::ostringstream second;
  trace.to_csv().write(first);
  loaded.to_csv().write(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST(Trace, FilteredTracesShareTheParentTable) {
  const kc::Trace trace = captured_trace();
  const kc::Trace shuffle = trace.filter_kind(kn::FlowKind::kShuffle);
  const kc::Trace job = trace.filter_job(7);
  ASSERT_EQ(shuffle.size(), 1u);
  ASSERT_EQ(job.size(), 1u);
  EXPECT_EQ(shuffle.names(), trace.names());
  EXPECT_EQ(job.names(), trace.names());
  EXPECT_EQ(trace.filter_window(0.0, 1e9).names(), trace.names());
}

TEST(Trace, NameOfAnIdPastTheTableThrows) {
  EXPECT_THROW((void)kc::Trace().name(kn::NodeId(0)), std::out_of_range);
  EXPECT_THROW((void)named_trace().name(kn::NodeId(2)), std::out_of_range);
}

// Each fixture carries one defect and a "# expect: <locus>: <message>"
// first line; load() must reject it with exactly "<path>: " + that text.
TEST(Trace, CsvLoaderRejectsEachFixtureNamingRowAndColumn) {
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(KEDDAH_TRACE_FIXTURES)) {
    const std::string path = entry.path().string();
    SCOPED_TRACE(path);
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    const std::string prefix = "# expect: ";
    ASSERT_EQ(first.rfind(prefix, 0), 0u);
    try {
      (void)kc::Trace::load(path);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), path + ": " + first.substr(prefix.size()));
    }
    ++checked;
  }
  EXPECT_GE(checked, 15u);
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
  EXPECT_EQ(trace[0].src_id, topo.find("h0"));
  EXPECT_EQ(trace.name(trace[0].src_id), "h0");
  EXPECT_EQ(trace.name(trace[0].dst_id), "h1");
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

// Unit tests for the generation stage: scenario resolution, schedule
// sampling, volume normalization, replay semantics, and the ns-3 exporter.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "gen/generator.h"
#include "gen/ns3_export.h"
#include "gen/replay.h"
#include "capture/trace.h"

namespace kg = keddah::gen;
namespace km = keddah::model;
namespace kn = keddah::net;
namespace kst = keddah::stats;
namespace ku = keddah::util;
namespace kc = keddah::capture;

namespace {

/// A hand-built model: 1 shuffle flow per map x reducer of constant 1 MB
/// during [0.2, 0.8] of the job; duration = 10 s + 1e-8 s/B.
km::KeddahModel toy_model() {
  km::KeddahModel m;
  m.set_job_name("toy");
  m.context().block_size = 128ull << 20;
  m.context().cluster_nodes = 8;

  auto& shuffle = m.class_model(kn::FlowKind::kShuffle);
  shuffle.training_flows = 100;
  shuffle.size.parametric = kst::Distribution::constant(1 << 20);
  shuffle.size.kind = km::SizeModelKind::kParametric;
  const std::vector<double> one_mb(4, static_cast<double>(1 << 20));
  shuffle.size.empirical = kst::Ecdf(one_mb);
  shuffle.count.fit.slope = 1.0;
  shuffle.count.regressor = "maps_x_reducers";
  const std::vector<double> offsets = {0.0, 0.5, 1.0};
  shuffle.temporal.normalized_offsets = kst::Ecdf(offsets);
  shuffle.temporal.phase_start_frac = 0.2;
  shuffle.temporal.phase_end_frac = 0.8;

  m.duration_model().slope = 1e-8;
  m.duration_model().intercept = 10.0;
  m.volume_model(kn::FlowKind::kShuffle).slope = 2e-3;  // bytes per input byte
  return m;
}

}  // namespace

TEST(Generator, CountFollowsStructuralLaw) {
  const auto model = toy_model();
  kg::TrafficGenerator generator(model, ku::Rng(1));
  kg::Scenario scenario;
  scenario.input_bytes = 1e9;
  scenario.num_maps = 10;
  scenario.num_reducers = 5;
  scenario.num_hosts = 8;
  const auto schedule = generator.generate(scenario);
  EXPECT_EQ(schedule.flows.size(), 50u);
  EXPECT_EQ(schedule.count(kn::FlowKind::kShuffle), 50u);
  EXPECT_DOUBLE_EQ(schedule.bytes_of(kn::FlowKind::kShuffle), 50.0 * (1 << 20));
}

TEST(Generator, ScenarioResolutionDerivesTaskCounts) {
  const auto model = toy_model();
  kg::TrafficGenerator generator(model, ku::Rng(2));
  kg::Scenario scenario;
  scenario.input_bytes = 10.0 * (128ull << 20);  // 10 blocks
  scenario.num_hosts = 8;
  const auto schedule = generator.generate(scenario);
  // maps = 10, reducers = 4 (1.25 GB -> clamped floor 4) -> 40 flows.
  EXPECT_EQ(schedule.flows.size(), 40u);
}

TEST(Generator, StartTimesWithinPredictedPhase) {
  const auto model = toy_model();
  kg::TrafficGenerator generator(model, ku::Rng(3));
  kg::Scenario scenario;
  scenario.input_bytes = 1e9;
  scenario.num_maps = 20;
  scenario.num_reducers = 10;
  const auto schedule = generator.generate(scenario);
  const double duration = schedule.predicted_duration;
  EXPECT_NEAR(duration, 20.0, 1e-9);
  for (const auto& f : schedule.flows) {
    EXPECT_GE(f.start, 0.2 * duration - 1e-9);
    EXPECT_LE(f.start, 0.8 * duration + 1e-9);
  }
}

TEST(Generator, FlowsSortedByStart) {
  const auto model = toy_model();
  kg::TrafficGenerator generator(model, ku::Rng(4));
  kg::Scenario scenario;
  scenario.input_bytes = 1e9;
  scenario.num_maps = 16;
  scenario.num_reducers = 8;
  const auto schedule = generator.generate(scenario);
  for (std::size_t i = 1; i < schedule.flows.size(); ++i) {
    EXPECT_LE(schedule.flows[i - 1].start, schedule.flows[i].start);
  }
}

TEST(Generator, EndpointsDistinctAndInRange) {
  const auto model = toy_model();
  kg::TrafficGenerator generator(model, ku::Rng(5));
  kg::Scenario scenario;
  scenario.input_bytes = 1e9;
  scenario.num_maps = 30;
  scenario.num_reducers = 10;
  scenario.num_hosts = 4;
  const auto schedule = generator.generate(scenario);
  for (const auto& f : schedule.flows) {
    EXPECT_LT(f.src_host, 4u);
    EXPECT_LT(f.dst_host, 4u);
    EXPECT_NE(f.src_host, f.dst_host);
  }
}

TEST(Generator, DeterministicForSameSeed) {
  const auto model = toy_model();
  kg::Scenario scenario;
  scenario.input_bytes = 1e9;
  scenario.num_maps = 8;
  scenario.num_reducers = 4;
  const auto a = kg::TrafficGenerator(model, ku::Rng(42)).generate(scenario);
  const auto b = kg::TrafficGenerator(model, ku::Rng(42)).generate(scenario);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].start, b.flows[i].start);
    EXPECT_EQ(a.flows[i].src_host, b.flows[i].src_host);
  }
}

TEST(Generator, VolumeNormalizationMatchesScalingLaw) {
  const auto model = toy_model();
  kg::GeneratorOptions options;
  options.normalize_volume = true;
  kg::TrafficGenerator generator(model, ku::Rng(6), options);
  kg::Scenario scenario;
  scenario.input_bytes = 1e9;
  scenario.num_maps = 8;
  scenario.num_reducers = 4;
  const auto schedule = generator.generate(scenario);
  // Volume law says 2e-3 * 1e9 = 2e6 bytes total.
  EXPECT_NEAR(schedule.bytes_of(kn::FlowKind::kShuffle), 2e6, 1.0);
}

TEST(Generator, UntrainedClassesProduceNothing) {
  const auto model = toy_model();
  kg::TrafficGenerator generator(model, ku::Rng(7));
  kg::Scenario scenario;
  scenario.input_bytes = 1e9;
  scenario.num_maps = 8;
  scenario.num_reducers = 4;
  const auto schedule = generator.generate(scenario);
  EXPECT_EQ(schedule.count(kn::FlowKind::kHdfsRead), 0u);
  EXPECT_EQ(schedule.count(kn::FlowKind::kHdfsWrite), 0u);
  EXPECT_EQ(schedule.count(kn::FlowKind::kControl), 0u);
}

// ---------------------------------------------------------------- replay

TEST(Replay, MetaInvertsClassifier) {
  for (const auto kind :
       {kn::FlowKind::kHdfsRead, kn::FlowKind::kShuffle, kn::FlowKind::kHdfsWrite,
        kn::FlowKind::kControl}) {
    const auto meta = kg::meta_for_kind(kind);
    kc::FlowRecord r;
    r.src_port = meta.src_port;
    r.dst_port = meta.dst_port;
    EXPECT_EQ(kc::classify_by_ports(r), kind);
  }
}

TEST(Replay, DeliversAllFlowsAndMeasuresMakespan) {
  kg::SyntheticTrafficSchedule schedule;
  // Two 1 Gbit flows to distinct hosts at t=0 and t=5 over 1 Gb/s links.
  schedule.flows.push_back({0, 1, kn::FlowKind::kShuffle, 1e9 / 8.0, 0.0});
  schedule.flows.push_back({2, 3, kn::FlowKind::kHdfsWrite, 1e9 / 8.0, 5.0});
  const auto topo = kn::make_star(4, 1e9, 0.0);
  const auto result = kg::replay(schedule, topo);
  ASSERT_EQ(result.trace.size(), 2u);
  EXPECT_NEAR(result.makespan, 6.0, 0.01);
  ASSERT_EQ(result.flow_completion_times.size(), 2u);
  EXPECT_NEAR(result.mean_fct(), 1.0, 0.01);
  // Replay trace classifies exactly like a capture.
  const auto stats = result.trace.class_stats();
  EXPECT_EQ(stats[static_cast<std::size_t>(kn::FlowKind::kShuffle)].flows, 1u);
  EXPECT_EQ(stats[static_cast<std::size_t>(kn::FlowKind::kHdfsWrite)].flows, 1u);
}

TEST(Replay, ContendingFlowsShareBandwidth) {
  kg::SyntheticTrafficSchedule schedule;
  // Two flows into the same destination: each gets 0.5 Gb/s.
  schedule.flows.push_back({0, 2, kn::FlowKind::kShuffle, 1e9 / 8.0, 0.0});
  schedule.flows.push_back({1, 2, kn::FlowKind::kShuffle, 1e9 / 8.0, 0.0});
  const auto result = kg::replay(schedule, kn::make_star(3, 1e9, 0.0));
  EXPECT_NEAR(result.makespan, 2.0, 0.01);
}

TEST(Replay, HostIndicesWrapAroundTopology) {
  kg::SyntheticTrafficSchedule schedule;
  schedule.flows.push_back({10, 11, kn::FlowKind::kShuffle, 1000.0, 0.0});
  const auto result = kg::replay(schedule, kn::make_star(3, 1e9, 0.0));
  EXPECT_EQ(result.trace.size(), 1u);
  EXPECT_NE(result.trace[0].src_id, result.trace[0].dst_id);
}

TEST(Replay, EmptyScheduleYieldsEmptyResult) {
  const auto result = kg::replay({}, kn::make_star(2, 1e9, 0.0));
  EXPECT_EQ(result.trace.size(), 0u);
  EXPECT_DOUBLE_EQ(result.makespan, 0.0);
  EXPECT_DOUBLE_EQ(result.mean_fct(), 0.0);
  EXPECT_DOUBLE_EQ(result.p99_fct(), 0.0);
}

// ---------------------------------------------------------------- ns-3 export

TEST(Ns3Export, CsvHasHeaderAndRows) {
  kg::SyntheticTrafficSchedule schedule;
  schedule.flows.push_back({0, 1, kn::FlowKind::kShuffle, 1024.0, 1.5});
  schedule.flows.push_back({2, 3, kn::FlowKind::kHdfsWrite, 2048.0, 2.0});
  const auto csv = kg::schedule_to_csv(schedule);
  EXPECT_NE(csv.find("start,src,dst,bytes,kind,port"), std::string::npos);
  EXPECT_NE(csv.find("1.500000,0,1,1024,shuffle,13562"), std::string::npos);
  EXPECT_NE(csv.find("2.000000,2,3,2048,hdfs_write,50010"), std::string::npos);
}

TEST(Ns3Export, ProgramMentionsNs3Machinery) {
  kg::Ns3ExportOptions options;
  options.num_hosts = 12;
  options.link_rate = "10Gbps";
  const auto program = kg::render_ns3_program(options);
  EXPECT_NE(program.find("BulkSendHelper"), std::string::npos);
  EXPECT_NE(program.find("PacketSinkHelper"), std::string::npos);
  EXPECT_NE(program.find("uint32_t numHosts = 12"), std::string::npos);
  EXPECT_NE(program.find("10Gbps"), std::string::npos);
  EXPECT_NE(program.find("PopulateRoutingTables"), std::string::npos);
}

TEST(Ns3Export, WritesBothFiles) {
  kg::SyntheticTrafficSchedule schedule;
  schedule.flows.push_back({0, 1, kn::FlowKind::kShuffle, 100.0, 0.0});
  const std::string base = ::testing::TempDir() + "/keddah_ns3_test";
  kg::export_ns3(schedule, base);
  std::ifstream csv(base + ".csv");
  std::ifstream cc(base + ".cc");
  EXPECT_TRUE(csv.good());
  EXPECT_TRUE(cc.good());
  std::remove((base + ".csv").c_str());
  std::remove((base + ".cc").c_str());
}

TEST(ClosedLoopReplay, MatchesOpenLoopOnFastFabric) {
  kg::SyntheticTrafficSchedule schedule;
  for (int i = 0; i < 10; ++i) {
    schedule.flows.push_back({static_cast<std::size_t>(i % 4),
                              static_cast<std::size_t>((i + 1) % 4), kn::FlowKind::kShuffle,
                              1e5, 0.1 * i});
  }
  const auto topo = kn::make_star(4, 1e10, 0.0);
  const auto open = kg::replay(schedule, topo);
  const auto closed = kg::replay_closed_loop(schedule, topo);
  EXPECT_EQ(open.trace.size(), closed.trace.size());
  EXPECT_NEAR(open.makespan, closed.makespan, 0.01);
}

TEST(ClosedLoopReplay, GatesShuffleFetchesPerDestination) {
  // 8 shuffle flows into one host at t=0 with 2 fetch slots: they serialize
  // in waves of 2, so the last finishes ~4x later than the first pair.
  kg::SyntheticTrafficSchedule schedule;
  for (std::size_t i = 0; i < 8; ++i) {
    schedule.flows.push_back({1 + (i % 3), 0, kn::FlowKind::kShuffle, 1e9 / 8.0, 0.0});
  }
  const auto topo = kn::make_star(4, 1e9, 0.0);
  kg::ClosedLoopOptions options;
  options.shuffle_fetch_slots = 2;
  const auto closed = kg::replay_closed_loop(schedule, topo, options);
  ASSERT_EQ(closed.trace.size(), 8u);
  // Open loop: all 8 share the 1 Gb/s downlink -> every flow takes ~8 s.
  const auto open = kg::replay(schedule, topo);
  EXPECT_NEAR(open.mean_fct(), 8.0, 0.1);
  // Closed loop: waves of 2 at 0.5 Gb/s each -> every flow takes ~2 s from
  // its (possibly deferred) launch; makespan ~8 s either way (the link is
  // saturated throughout).
  EXPECT_NEAR(closed.mean_fct(), 2.0, 0.1);
  EXPECT_NEAR(closed.makespan, 8.0, 0.2);
  // At most 2 shuffle flows overlap at the destination.
  const auto& records = closed.trace.records();
  for (const auto& a : records) {
    int overlapping = 0;
    for (const auto& b : records) {
      if (b.start < a.end && a.start < b.end) ++overlapping;
    }
    EXPECT_LE(overlapping, 2);
  }
}

TEST(ClosedLoopReplay, NonShuffleFlowsAreNotGated) {
  kg::SyntheticTrafficSchedule schedule;
  for (std::size_t i = 0; i < 6; ++i) {
    schedule.flows.push_back({1 + (i % 3), 0, kn::FlowKind::kHdfsWrite, 1e6, 0.0});
  }
  kg::ClosedLoopOptions options;
  options.shuffle_fetch_slots = 1;
  const auto closed = kg::replay_closed_loop(schedule, kn::make_star(4, 1e9, 0.0), options);
  const auto open = kg::replay(schedule, kn::make_star(4, 1e9, 0.0));
  EXPECT_NEAR(closed.makespan, open.makespan, 1e-6);
}

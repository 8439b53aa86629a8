// Tests for toolchain extensions: Anderson-Darling statistic, Poisson job
// mixes, schedule CSV round-trip, and run save/load interchange files.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "gen/ns3_export.h"
#include "keddah/toolchain.h"
#include "stats/kstest.h"
#include "workloads/suite.h"

namespace kst = keddah::stats;
namespace ku = keddah::util;
namespace kw = keddah::workloads;
namespace kg = keddah::gen;
namespace kn = keddah::net;

TEST(AndersonDarling, SmallForCorrectModel) {
  ku::Rng rng(1);
  std::vector<double> xs(2000);
  const auto d = kst::Distribution::lognormal(10.0, 1.0);
  for (auto& x : xs) x = d.sample(rng);
  const double a2 = kst::ad_statistic(xs, d);
  // 5% critical value for a fully-specified model is ~2.49.
  EXPECT_LT(a2, 2.49);
}

TEST(AndersonDarling, LargeForWrongModel) {
  ku::Rng rng(2);
  std::vector<double> xs(2000);
  for (auto& x : xs) x = rng.exponential(1.0);
  const double a2 = kst::ad_statistic(xs, kst::Distribution::normal(1.0, 1.0));
  EXPECT_GT(a2, 10.0);
}

TEST(AndersonDarling, InfiniteOutsideSupport) {
  const std::vector<double> xs = {0.5, 1.0, 2.0};
  // Pareto(xm=1): the 0.5 point has CDF 0 -> A^2 blows up.
  const double a2 = kst::ad_statistic(xs, kst::Distribution::pareto(1.0, 2.0));
  EXPECT_TRUE(std::isinf(a2));
  EXPECT_THROW(kst::ad_statistic({}, kst::Distribution::exponential(1.0)),
               std::invalid_argument);
}

TEST(PoissonMix, RespectsHorizonAndRate) {
  kw::PoissonMixSpec spec;
  spec.workloads = {kw::Workload::kSort, kw::Workload::kGrep};
  spec.input_sizes = {1ull << 30, 2ull << 30};
  spec.arrival_rate = 0.1;
  spec.horizon_s = 2000.0;
  ku::Rng rng(3);
  const auto jobs = kw::sample_poisson_mix(spec, rng);
  // Expect ~200 arrivals; allow generous slack.
  EXPECT_GT(jobs.size(), 140u);
  EXPECT_LT(jobs.size(), 270u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_LT(jobs[i].submit_at, spec.horizon_s);
    if (i > 0) {
      EXPECT_GE(jobs[i].submit_at, jobs[i - 1].submit_at);
    }
    EXPECT_TRUE(jobs[i].input_bytes == (1ull << 30) || jobs[i].input_bytes == (2ull << 30));
  }
}

TEST(PoissonMix, MaxJobsCap) {
  kw::PoissonMixSpec spec;
  spec.workloads = {kw::Workload::kSort};
  spec.input_sizes = {1ull << 20};
  spec.arrival_rate = 10.0;
  spec.horizon_s = 1000.0;
  spec.max_jobs = 7;
  ku::Rng rng(4);
  EXPECT_EQ(kw::sample_poisson_mix(spec, rng).size(), 7u);
}

TEST(PoissonMix, InvalidSpecThrows) {
  kw::PoissonMixSpec spec;
  ku::Rng rng(5);
  EXPECT_THROW(kw::sample_poisson_mix(spec, rng), std::invalid_argument);
}

TEST(PoissonMix, RunnableEndToEnd) {
  kw::PoissonMixSpec spec;
  spec.workloads = {kw::Workload::kGrep, kw::Workload::kWordCount};
  spec.input_sizes = {128ull << 20};
  spec.arrival_rate = 0.2;
  spec.horizon_s = 20.0;
  spec.max_jobs = 3;
  ku::Rng rng(6);
  auto jobs = kw::sample_poisson_mix(spec, rng);
  ASSERT_GT(jobs.size(), 0u);
  keddah::hadoop::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  const auto mix = kw::run_mix(cfg, jobs, 7);
  EXPECT_EQ(mix.results.size(), jobs.size());
  for (const auto& r : mix.results) EXPECT_GT(r.duration(), 0.0);
}

TEST(ScheduleCsv, RoundTrip) {
  kg::SyntheticTrafficSchedule schedule;
  schedule.flows.push_back({0, 1, kn::FlowKind::kShuffle, 1024.0, 1.5});
  schedule.flows.push_back({3, 2, kn::FlowKind::kHdfsWrite, 4096.0, 2.25});
  schedule.flows.push_back({1, 0, kn::FlowKind::kControl, 700.0, 0.5});
  const auto restored = kg::schedule_from_csv(kg::schedule_to_csv(schedule));
  ASSERT_EQ(restored.flows.size(), 3u);
  EXPECT_EQ(restored.flows[0].kind, kn::FlowKind::kShuffle);
  EXPECT_DOUBLE_EQ(restored.flows[0].bytes, 1024.0);
  EXPECT_EQ(restored.flows[1].src_host, 3u);
  EXPECT_NEAR(restored.flows[1].start, 2.25, 1e-6);
  EXPECT_EQ(restored.flows[2].kind, kn::FlowKind::kControl);
}

TEST(RunInterchange, SaveLoadRoundTrip) {
  keddah::model::TrainingRun run;
  run.input_bytes = 1e9;
  run.num_maps = 8;
  run.num_reducers = 4;
  run.job_start = 1.5;
  run.job_end = 42.0;
  run.trace = keddah::capture::Trace(
      std::make_shared<const std::vector<std::string>>(std::vector<std::string>{"h0", "h1"}));
  keddah::capture::FlowRecord r;
  r.src_id = kn::NodeId(0);
  r.dst_id = kn::NodeId(1);
  r.src_port = kn::ports::kShuffle;
  r.bytes = 123.0;
  r.start = 2.0;
  r.end = 3.0;
  run.trace.add(r);

  const std::string base = ::testing::TempDir() + "/keddah_run_roundtrip";
  keddah::core::save_run(run, base);
  const auto loaded = keddah::core::load_run(base);
  EXPECT_DOUBLE_EQ(loaded.input_bytes, 1e9);
  EXPECT_EQ(loaded.num_maps, 8u);
  EXPECT_EQ(loaded.num_reducers, 4u);
  EXPECT_DOUBLE_EQ(loaded.job_start, 1.5);
  EXPECT_DOUBLE_EQ(loaded.job_end, 42.0);
  ASSERT_EQ(loaded.trace.size(), 1u);
  EXPECT_EQ(loaded.trace.name(loaded.trace[0].src_id), "h0");
  std::filesystem::remove(base + ".csv");
  std::filesystem::remove(base + ".meta.json");
}

// Tests for concurrent job mixes: emulated concurrency (run_jobs) and
// synthetic mix composition (generate_mix).
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/generator.h"
#include "gen/replay.h"
#include "keddah/toolchain.h"
#include "workloads/suite.h"

namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace kw = keddah::workloads;
namespace kg = keddah::gen;
namespace kc = keddah::core;

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

// One serial capture run at one size — training input for the mix tests.
std::vector<keddah::model::TrainingRun> capture_one(const kh::ClusterConfig& cfg,
                                                    kw::Workload workload, std::uint64_t size,
                                                    std::uint64_t seed) {
  kc::CaptureSpec spec;
  spec.workload = workload;
  spec.input_sizes = {size};
  spec.seed = seed;
  spec.threads = 1;
  return kc::capture_runs(cfg, spec);
}

struct Mix {
  /// Per-job results in entry order.
  std::vector<kh::JobResult> results;
  keddah::capture::Trace trace;
};

// The jobs submitted concurrently on one fresh cluster.
Mix run_concurrently(const std::vector<kw::JobEntry>& jobs, std::uint64_t seed) {
  kh::HadoopCluster cluster(test_config(), seed);
  Mix mix;
  mix.results = kw::run_jobs(cluster, jobs);
  // Job ids follow submission order, which is entry order in these tests.
  std::ranges::sort(mix.results, {}, &kh::JobResult::job_id);
  mix.trace = cluster.take_trace();
  return mix;
}

}  // namespace

TEST(RunMix, ConcurrentJobsAllComplete) {
  const std::vector<kw::JobEntry> jobs = {
      {kw::Workload::kSort, 256 * kMiB, 4, 0.0},
      {kw::Workload::kGrep, 256 * kMiB, 2, 2.0},
      {kw::Workload::kWordCount, 128 * kMiB, 2, 4.0},
  };
  const auto mix = run_concurrently(jobs, 101);
  ASSERT_EQ(mix.results.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_GE(mix.results[i].submit_time, jobs[i].submit_at - 1e-9);
    EXPECT_GT(mix.results[i].duration(), 0.0);
    EXPECT_EQ(mix.results[i].job_name,
              std::string(kw::workload_name(jobs[i].workload)) + "_j" + std::to_string(i) + "_i0");
  }
  // Distinct ids.
  EXPECT_NE(mix.results[0].job_id, mix.results[1].job_id);
  EXPECT_NE(mix.results[1].job_id, mix.results[2].job_id);
}

TEST(RunMix, TraceSeparableByJobId) {
  const std::vector<kw::JobEntry> jobs = {
      {kw::Workload::kSort, 256 * kMiB, 4, 0.0},
      {kw::Workload::kGrep, 256 * kMiB, 2, 1.0},
  };
  const auto mix = run_concurrently(jobs, 103);
  const auto sort_trace = mix.trace.filter_job(mix.results[0].job_id);
  const auto grep_trace = mix.trace.filter_job(mix.results[1].job_id);
  EXPECT_GT(sort_trace.size(), 0u);
  EXPECT_GT(grep_trace.size(), 0u);
  // Sort shuffles far more than grep at the same input size.
  const auto sort_shuffle = sort_trace.filter_kind(kn::FlowKind::kShuffle).total_bytes();
  const auto grep_shuffle = grep_trace.filter_kind(kn::FlowKind::kShuffle).total_bytes();
  EXPECT_GT(sort_shuffle, 50.0 * grep_shuffle);
}

TEST(RunMix, ContentionStretchesJobs) {
  // Two sorts fighting for 32 slots take longer than one alone.
  const auto solo =
      kw::run_single(test_config(), kw::Workload::kSort, 512 * kMiB, 4, 107).result.duration();
  const std::vector<kw::JobEntry> jobs = {
      {kw::Workload::kSort, 512 * kMiB, 4, 0.0},
      {kw::Workload::kSort, 511 * kMiB, 4, 0.0},
  };
  const auto mix = run_concurrently(jobs, 107);
  const double slowest =
      std::max(mix.results[0].duration(), mix.results[1].duration());
  EXPECT_GT(slowest, solo);
}

TEST(RunMix, EmptyMixIsEmpty) {
  const auto mix = run_concurrently({}, 109);
  EXPECT_TRUE(mix.results.empty());
  EXPECT_TRUE(mix.trace.empty());
}

TEST(GenerateMix, ComposesAndShiftsSchedules) {
  const auto cfg = test_config();
  const auto runs = capture_one(cfg, kw::Workload::kSort, 256 * kMiB, 113);
  const auto model = kc::train("sort", runs, cfg);

  kg::MixEntry a;
  a.model = &model;
  a.scenario.input_bytes = 256.0 * kMiB;
  a.scenario.num_hosts = 8;
  a.submit_at = 0.0;
  kg::MixEntry b = a;
  b.submit_at = 100.0;

  const auto mix = kg::generate_mix(std::vector<kg::MixEntry>{a, b}, keddah::util::Rng(1));
  ASSERT_GT(mix.flows.size(), 0u);
  // Two identical jobs -> twice the flows of one.
  const auto solo = kg::TrafficGenerator(model, keddah::util::Rng(2)).generate(a.scenario);
  EXPECT_EQ(mix.flows.size(), 2 * solo.flows.size());
  // The second job's flows all start at/after its submit offset; sorted.
  std::size_t late = 0;
  for (std::size_t i = 1; i < mix.flows.size(); ++i) {
    EXPECT_LE(mix.flows[i - 1].start, mix.flows[i].start);
    late += (mix.flows[i].start >= 100.0);
  }
  EXPECT_EQ(late, solo.flows.size());
  EXPECT_GE(mix.predicted_duration, 100.0);
}

TEST(GenerateMix, NullModelThrows) {
  kg::MixEntry bad;
  bad.model = nullptr;
  EXPECT_THROW(kg::generate_mix(std::vector<kg::MixEntry>{bad}, keddah::util::Rng(1)),
               std::invalid_argument);
}

TEST(GenerateMix, ReplayableOnTopology) {
  const auto cfg = test_config();
  const auto runs = capture_one(cfg, kw::Workload::kGrep, 256 * kMiB, 127);
  const auto model = kc::train("grep", runs, cfg);
  kg::MixEntry entry;
  entry.model = &model;
  entry.scenario.input_bytes = 256.0 * kMiB;
  entry.scenario.num_hosts = 8;
  const auto mix =
      kg::generate_mix(std::vector<kg::MixEntry>{entry, entry}, keddah::util::Rng(3));
  const auto replayed = kg::replay(mix, cfg.build_topology());
  EXPECT_EQ(replayed.trace.size(), mix.flows.size());
}

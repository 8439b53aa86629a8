// End-to-end toolchain tests: capture -> train -> reproduce -> validate on
// the emulated cluster, checking the fidelity bounds the paper's validation
// reports (matching flow counts, volumes within tens of percent, small
// two-sample KS distances).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "keddah/toolchain.h"
#include "util/json_reader.h"

namespace kc = keddah::core;
namespace kg = keddah::gen;
namespace kh = keddah::hadoop;
namespace km = keddah::model;
namespace kn = keddah::net;
namespace kw = keddah::workloads;

namespace {

kh::ClusterConfig small_config() {
  kh::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  cfg.containers_per_node = 4;
  return cfg;
}

constexpr std::uint64_t kMiB = 1ull << 20;

// Serial one-size capture sweep (these tests predate the thread knob and
// pin their expectations on serial-equivalent output, which SweepRunner
// guarantees at any thread count anyway).
kc::CaptureSpec capture_spec(kw::Workload workload, std::vector<std::uint64_t> sizes,
                             std::size_t repetitions, std::uint64_t seed) {
  kc::CaptureSpec spec;
  spec.workload = workload;
  spec.input_sizes = std::move(sizes);
  spec.repetitions = repetitions;
  spec.seed = seed;
  spec.threads = 1;
  return spec;
}

}  // namespace

TEST(Toolchain, CaptureRunsProducesTrainingData) {
  const std::vector<std::uint64_t> sizes = {256 * kMiB};
  const auto runs = kc::capture_runs(small_config(), capture_spec(kw::Workload::kSort, sizes, 2, 7));
  ASSERT_EQ(runs.size(), 2u);
  for (const auto& run : runs) {
    EXPECT_GT(run.trace.size(), 0u);
    EXPECT_EQ(run.num_maps, 4u);
    EXPECT_GT(run.duration(), 0.0);
    EXPECT_DOUBLE_EQ(run.input_bytes, 256.0 * kMiB);
  }
  // Different seeds give different (but same-shape) captures.
  EXPECT_NE(runs[0].trace.size(), 0u);
}

TEST(Toolchain, TrainRecordsClusterContext) {
  const auto cfg = small_config();
  const std::vector<std::uint64_t> sizes = {256 * kMiB};
  const auto runs = kc::capture_runs(cfg, capture_spec(kw::Workload::kSort, sizes, 1, 11));
  const auto model = kc::train("sort", runs, cfg);
  EXPECT_EQ(model.job_name(), "sort");
  EXPECT_EQ(model.context().block_size, cfg.block_size);
  EXPECT_EQ(model.context().replication, cfg.replication);
  EXPECT_EQ(model.context().cluster_nodes, 8u);
  EXPECT_GT(model.class_model(kn::FlowKind::kShuffle).training_flows, 0u);
  EXPECT_GT(model.class_model(kn::FlowKind::kHdfsWrite).training_flows, 0u);
  EXPECT_GT(model.class_model(kn::FlowKind::kControl).training_flows, 0u);
}

TEST(Toolchain, EndToEndValidationWithinBounds) {
  const auto cfg = small_config();
  const std::vector<std::uint64_t> sizes = {512 * kMiB};
  const auto runs = kc::capture_runs(cfg, capture_spec(kw::Workload::kSort, sizes, 3, 13));
  const auto model = kc::train("sort", runs, cfg);
  kc::ValidateSpec vspec;
  vspec.seed = 99;
  vspec.threads = 1;
  const auto report = kc::validate_model(model, runs[0], cfg, vspec);

  const auto& shuffle = report.of(kn::FlowKind::kShuffle);
  EXPECT_GT(shuffle.captured_flows, 0u);
  EXPECT_GT(shuffle.generated_flows, 0u);
  // Structural M x R law holds to a few percent.
  EXPECT_LT(std::fabs(shuffle.count_error()), 0.25);
  EXPECT_LT(std::fabs(shuffle.volume_error()), 0.40);
  EXPECT_LT(shuffle.size_ks, 0.35);

  const auto& write = report.of(kn::FlowKind::kHdfsWrite);
  EXPECT_LT(std::fabs(write.count_error()), 0.30);
  EXPECT_LT(std::fabs(write.volume_error()), 0.40);

  EXPECT_LT(std::fabs(report.total_volume_error()), 0.35);
}

TEST(Toolchain, VolumeNormalizationTightensVolumes) {
  const auto cfg = small_config();
  const std::vector<std::uint64_t> sizes = {512 * kMiB};
  const auto runs = kc::capture_runs(cfg, capture_spec(kw::Workload::kSort, sizes, 2, 17));
  const auto model = kc::train("sort", runs, cfg);
  kc::ValidateSpec vspec;
  vspec.seed = 3;
  vspec.threads = 1;
  vspec.gen_options.normalize_volume = true;
  const auto report = kc::validate_model(model, runs[0], cfg, vspec);
  // Normalized generation pins per-class volume to the scaling law, which
  // was trained on these runs: total volume error shrinks well under 25%.
  EXPECT_LT(std::fabs(report.total_volume_error()), 0.25);
}

TEST(Toolchain, GenerateAndReplayProducesClassifiableTraffic) {
  const auto cfg = small_config();
  const std::vector<std::uint64_t> sizes = {256 * kMiB};
  const auto runs = kc::capture_runs(cfg, capture_spec(kw::Workload::kNutchIndex, sizes, 1, 19));
  const auto model = kc::train("nutchindex", runs, cfg);
  kg::Scenario scenario;
  scenario.input_bytes = 256.0 * kMiB;
  scenario.num_maps = runs[0].num_maps;
  scenario.num_reducers = runs[0].num_reducers;
  scenario.num_hosts = 8;
  kc::ReproduceSpec rspec;
  rspec.scenario = scenario;
  rspec.seed = 5;
  const auto result = kc::generate_and_replay(model, rspec, cfg.build_topology());
  ASSERT_GT(result.schedule.flows.size(), 0u);
  EXPECT_EQ(result.replay.trace.size(), result.schedule.flows.size());
  // Replayed records classify into the classes the schedule requested.
  for (const auto& r : result.replay.trace.records()) {
    EXPECT_EQ(keddah::capture::classify_by_ports(r), r.truth);
  }
  EXPECT_GT(result.replay.makespan, 0.0);
}

TEST(Toolchain, ModelRoundTripThroughDiskReproducesSchedule) {
  const auto cfg = small_config();
  const std::vector<std::uint64_t> sizes = {256 * kMiB};
  const auto runs = kc::capture_runs(cfg, capture_spec(kw::Workload::kSort, sizes, 1, 23));
  const auto model = kc::train("sort", runs, cfg);
  const std::string path = ::testing::TempDir() + "/keddah_toolchain_model.json";
  model.save(path);
  const auto loaded = km::KeddahModel::load(path);

  kg::Scenario scenario;
  scenario.input_bytes = 256.0 * kMiB;
  scenario.num_hosts = 8;
  kg::TrafficGenerator g1(model, keddah::util::Rng(31));
  kg::TrafficGenerator g2(loaded, keddah::util::Rng(31));
  const auto a = g1.generate(scenario);
  const auto b = g2.generate(scenario);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  // Counts per class identical; sizes may differ in the last ulp through
  // JSON but stay equal for all practical purposes.
  for (const auto kind : km::kModelledClasses) {
    EXPECT_EQ(a.count(kind), b.count(kind));
    EXPECT_NEAR(a.bytes_of(kind), b.bytes_of(kind), 1.0 + 1e-6 * a.bytes_of(kind));
  }
  std::remove(path.c_str());
}

TEST(Toolchain, ShuffleHeavyVsLightJobsModelDifferently) {
  const auto cfg = small_config();
  const std::vector<std::uint64_t> sizes = {512 * kMiB};
  const auto sort_runs = kc::capture_runs(cfg, capture_spec(kw::Workload::kSort, sizes, 1, 29));
  const auto grep_runs = kc::capture_runs(cfg, capture_spec(kw::Workload::kGrep, sizes, 1, 29));
  const auto sort_model = kc::train("sort", sort_runs, cfg);
  const auto grep_model = kc::train("grep", grep_runs, cfg);
  const double sort_shuffle = sort_model.predict_volume(kn::FlowKind::kShuffle, 1e9);
  const double grep_shuffle = grep_model.predict_volume(kn::FlowKind::kShuffle, 1e9);
  EXPECT_GT(sort_shuffle, 100.0 * grep_shuffle);
}

TEST(Toolchain, LoadRunChecksTheMetadataFile) {
  const std::string base = ::testing::TempDir() + "/keddah_meta_check";
  const std::string meta = base + ".meta.json";
  kc::save_run(km::TrainingRun{}, base);
  std::ofstream(meta) << R"({"input_bytes": 1073741824, "num_maps": 8, "num_reducers": 2,
                            "job_start": 0.5, "job_end": 12.25})";
  const auto run = kc::load_run(base);
  EXPECT_DOUBLE_EQ(run.input_bytes, 1073741824.0);
  EXPECT_EQ(run.num_maps, 8u);
  EXPECT_EQ(run.num_reducers, 2u);
  EXPECT_DOUBLE_EQ(run.duration(), 11.75);

  // Negative or null counts were undefined double -> size_t casts; a
  // missing field was a bare "json: missing key".
  struct Case {
    const char* text;
    const char* key;
  };
  const Case cases[] = {
      {R"({"input_bytes": 1e9, "num_maps": -4, "num_reducers": 2, "job_start": 0,
           "job_end": 1})",
       "num_maps"},
      {R"({"input_bytes": 1e9, "num_maps": 4, "num_reducers": null, "job_start": 0,
           "job_end": 1})",
       "num_reducers"},
      {R"({"input_bytes": 1e9, "num_maps": 4, "num_reducers": 2, "job_start": 0,
           "job_end": -1})",
       "job_end"},
      {R"({"num_maps": 4, "num_reducers": 2, "job_start": 0, "job_end": 1})", "input_bytes"},
      {"[]", "$"},
  };
  for (const Case& c : cases) {
    std::ofstream(meta) << c.text;
    try {
      (void)kc::load_run(base);
      ADD_FAILURE() << "accepted " << c.text;
    } catch (const keddah::util::SpecError& e) {
      EXPECT_EQ(e.file(), meta);
      EXPECT_EQ(e.key(), c.key) << e.what();
    }
  }
  std::remove(meta.c_str());
  std::remove((base + ".csv").c_str());
}

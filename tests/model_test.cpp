// Unit tests for the model library: component models, JSON round-trips,
// the trainer on synthetic traces, and regressor definitions.
#include <gtest/gtest.h>

#include <cmath>

#include "model/builder.h"
#include "model/keddah_model.h"

namespace km = keddah::model;
namespace kn = keddah::net;
namespace kst = keddah::stats;
namespace kc = keddah::capture;
namespace ku = keddah::util;

namespace {

kc::FlowRecord flow(kn::FlowKind kind, double bytes, double start, double end) {
  kc::FlowRecord r;
  r.bytes = bytes;
  r.start = start;
  r.end = end;
  r.truth = kind;
  switch (kind) {
    case kn::FlowKind::kHdfsRead:
      r.src_port = kn::ports::kDataNodeXfer;
      r.dst_port = kn::ports::kEphemeralBase;
      break;
    case kn::FlowKind::kHdfsWrite:
      r.src_port = kn::ports::kEphemeralBase;
      r.dst_port = kn::ports::kDataNodeXfer;
      break;
    case kn::FlowKind::kShuffle:
      r.src_port = kn::ports::kShuffle;
      r.dst_port = kn::ports::kEphemeralBase;
      break;
    case kn::FlowKind::kControl:
      r.src_port = kn::ports::kEphemeralBase;
      r.dst_port = kn::ports::kRmTracker;
      break;
    default:
      r.src_port = 1;
      r.dst_port = 2;
  }
  return r;
}

/// A synthetic run with `n_shuffle` lognormal shuffle flows during
/// [0.3, 0.7] of the job and `n_write` constant-size writes at the tail.
km::TrainingRun synthetic_run(ku::Rng& rng, double input_bytes, std::size_t maps,
                              std::size_t reducers, double duration) {
  km::TrainingRun run;
  run.input_bytes = input_bytes;
  run.num_maps = maps;
  run.num_reducers = reducers;
  run.job_start = 0.0;
  run.job_end = duration;
  const std::size_t n_shuffle = maps * reducers;
  for (std::size_t i = 0; i < n_shuffle; ++i) {
    const double bytes = rng.lognormal(std::log(input_bytes / (maps * reducers)), 0.3);
    const double start = rng.uniform(0.3 * duration, 0.7 * duration);
    run.trace.add(flow(kn::FlowKind::kShuffle, bytes, start, start + 0.5));
  }
  for (std::size_t i = 0; i < maps; ++i) {
    const double start = rng.uniform(0.8 * duration, 0.95 * duration);
    run.trace.add(flow(kn::FlowKind::kHdfsWrite, 1 << 26, start, start + 1.0));
  }
  return run;
}

}  // namespace

// ---------------------------------------------------------------- SizeModel

TEST(SizeModel, ParametricSamplingMatchesDistribution) {
  km::SizeModel m;
  m.parametric = kst::Distribution::constant(1000.0);
  m.kind = km::SizeModelKind::kParametric;
  ku::Rng rng(1);
  EXPECT_DOUBLE_EQ(m.sample(rng), 1000.0);
  EXPECT_DOUBLE_EQ(m.mean(), 1000.0);
}

TEST(SizeModel, EmpiricalFallbackWhenNoParametric) {
  km::SizeModel m;
  const std::vector<double> xs = {5.0, 5.0, 5.0};
  m.empirical = kst::Ecdf(xs);
  m.kind = km::SizeModelKind::kParametric;  // requested parametric, none fitted
  ku::Rng rng(2);
  EXPECT_DOUBLE_EQ(m.sample(rng), 5.0);
  EXPECT_TRUE(m.trained());
}

TEST(SizeModel, SamplesClampedNonNegative) {
  km::SizeModel m;
  m.parametric = kst::Distribution::normal(-100.0, 1.0);
  m.kind = km::SizeModelKind::kParametric;
  ku::Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_GE(m.sample(rng), 0.0);
}

TEST(SizeModel, MeanUsesEmpiricalWhenSelected) {
  km::SizeModel m;
  m.parametric = kst::Distribution::constant(1.0);
  const std::vector<double> xs = {10.0, 20.0, 30.0};
  m.empirical = kst::Ecdf(xs);
  m.kind = km::SizeModelKind::kEmpirical;
  EXPECT_DOUBLE_EQ(m.mean(), 20.0);
}

TEST(SizeModel, JsonRoundTrip) {
  km::SizeModel m;
  m.parametric = kst::Distribution::lognormal(12.0, 0.5);
  m.ks = 0.05;
  m.ks_pvalue = 0.7;
  m.kind = km::SizeModelKind::kEmpirical;
  std::vector<double> xs(100);
  ku::Rng rng(4);
  for (auto& x : xs) x = rng.lognormal(12.0, 0.5);
  m.empirical = kst::Ecdf(xs);
  const auto restored = km::SizeModel::from_json(m.to_json());
  EXPECT_EQ(restored.kind, km::SizeModelKind::kEmpirical);
  ASSERT_TRUE(restored.parametric.has_value());
  EXPECT_EQ(restored.parametric->family(), kst::DistFamily::kLognormal);
  EXPECT_DOUBLE_EQ(restored.ks, 0.05);
  EXPECT_EQ(restored.empirical.size(), 100u);
}

TEST(SizeModel, LargeEcdfSerializedAsQuantiles) {
  km::SizeModel m;
  std::vector<double> xs(5000);
  ku::Rng rng(5);
  for (auto& x : xs) x = rng.exponential(0.001);
  m.empirical = kst::Ecdf(xs);
  const auto doc = m.to_json();
  EXPECT_LE(doc.at("empirical").size(), 512u);
  const auto restored = km::SizeModel::from_json(doc);
  // Quantile-compressed ECDF still matches the original closely.
  EXPECT_NEAR(restored.empirical.quantile(0.5), m.empirical.quantile(0.5),
              0.05 * m.empirical.quantile(0.5));
}

// ---------------------------------------------------------------- CountModel

TEST(CountModel, PredictRoundsAndClamps) {
  km::CountModel m;
  m.fit.slope = 2.0;
  m.fit.intercept = 0.0;
  EXPECT_EQ(m.predict(3.2, "shuffle"), 6u);
  EXPECT_EQ(m.predict(0.0, "shuffle"), 0u);
  m.fit.slope = -1.0;
  EXPECT_EQ(m.predict(5.0, "shuffle"), 0u);
}

// A finite but huge slope passes every loader; the prediction is range
// checked before the size_t cast instead of wrapping to 2^63 flows.
TEST(CountModel, HugePredictionThrowsNamingClassAndX) {
  const auto m = km::CountModel::from_json(
      ku::Json::parse(R"({"fit": {"slope": 1e30, "intercept": 0}, "regressor": "maps"})"));
  try {
    (void)m.predict(1.0, "hdfs_read");
    FAIL() << "a 1e30-flow prediction was accepted";
  } catch (const std::overflow_error& e) {
    EXPECT_STREQ(e.what(),
                 "count model: hdfs_read at maps = 1 predicts 1e+30 flows, outside 0..1e+09");
  }
  EXPECT_EQ(m.predict(1e-30, "hdfs_read"), 1u);
}

TEST(CountModel, JsonRoundTrip) {
  km::CountModel m;
  m.fit.slope = 0.75;
  m.fit.r2 = 0.99;
  m.regressor = "maps_x_reducers";
  const auto restored = km::CountModel::from_json(m.to_json());
  EXPECT_DOUBLE_EQ(restored.fit.slope, 0.75);
  EXPECT_EQ(restored.regressor, "maps_x_reducers");
}

// ---------------------------------------------------------------- TemporalModel

TEST(TemporalModel, SamplesWithinPhase) {
  km::TemporalModel m;
  const std::vector<double> offsets = {0.0, 0.25, 0.5, 0.75, 1.0};
  m.normalized_offsets = kst::Ecdf(offsets);
  m.phase_start_frac = 0.2;
  m.phase_end_frac = 0.6;
  ku::Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    const double t = m.sample_start(rng, 100.0);
    EXPECT_GE(t, 20.0 - 1e-9);
    EXPECT_LE(t, 60.0 + 1e-9);
  }
}

TEST(TemporalModel, UntrainedFallsBackToUniform) {
  km::TemporalModel m;
  EXPECT_FALSE(m.trained());
  ku::Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const double t = m.sample_start(rng, 10.0);
    EXPECT_GE(t, 0.0);
    EXPECT_LE(t, 10.0);
  }
}

TEST(TemporalModel, JsonRoundTrip) {
  km::TemporalModel m;
  const std::vector<double> offsets = {0.1, 0.9};
  m.normalized_offsets = kst::Ecdf(offsets);
  m.phase_start_frac = 0.3;
  m.phase_end_frac = 0.8;
  const auto restored = km::TemporalModel::from_json(m.to_json());
  EXPECT_DOUBLE_EQ(restored.phase_start_frac, 0.3);
  EXPECT_DOUBLE_EQ(restored.phase_end_frac, 0.8);
  EXPECT_EQ(restored.normalized_offsets.size(), 2u);
}

// ---------------------------------------------------------------- KeddahModel

TEST(KeddahModel, ClassAccessByKind) {
  km::KeddahModel m;
  m.class_model(kn::FlowKind::kShuffle).training_flows = 42;
  EXPECT_EQ(m.class_model(kn::FlowKind::kShuffle).training_flows, 42u);
  EXPECT_THROW(m.class_model(kn::FlowKind::kOther), std::out_of_range);
}

TEST(KeddahModel, PredictionsClampPositive) {
  km::KeddahModel m;
  m.duration_model().slope = -1.0;
  m.duration_model().intercept = 5.0;
  EXPECT_DOUBLE_EQ(m.predict_duration(100.0), 0.0);
  EXPECT_DOUBLE_EQ(m.predict_duration(1.0), 4.0);
}

TEST(KeddahModel, FileRoundTrip) {
  km::KeddahModel m;
  m.set_job_name("sort");
  m.context().block_size = 128ull << 20;
  m.context().replication = 3;
  m.duration_model().slope = 1e-8;
  m.duration_model().intercept = 10.0;
  m.class_model(kn::FlowKind::kShuffle).count.fit.slope = 0.9;
  const std::string path = ::testing::TempDir() + "/keddah_model_test.json";
  m.save(path);
  const auto restored = km::KeddahModel::load(path);
  EXPECT_EQ(restored.job_name(), "sort");
  EXPECT_EQ(restored.context().block_size, 128ull << 20);
  EXPECT_EQ(restored.context().replication, 3u);
  EXPECT_DOUBLE_EQ(restored.class_model(kn::FlowKind::kShuffle).count.fit.slope, 0.9);
  EXPECT_NEAR(restored.predict_duration(1e9), 20.0, 1e-9);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- builder

TEST(Builder, RegressorDefinitions) {
  km::TrainingRun run;
  run.input_bytes = 1e9;
  run.num_maps = 8;
  run.num_reducers = 4;
  run.job_start = 5.0;
  run.job_end = 25.0;
  EXPECT_DOUBLE_EQ(km::class_regressor(kn::FlowKind::kHdfsRead, run), 8.0);
  EXPECT_DOUBLE_EQ(km::class_regressor(kn::FlowKind::kShuffle, run), 32.0);
  EXPECT_DOUBLE_EQ(km::class_regressor(kn::FlowKind::kHdfsWrite, run), 1e9);
  EXPECT_DOUBLE_EQ(km::class_regressor(kn::FlowKind::kControl, run), 20.0);
}

TEST(Builder, EmptyRunsThrow) {
  EXPECT_THROW(km::build_model("x", {}), std::invalid_argument);
}

TEST(Builder, RecoversStructuralShuffleLaw) {
  ku::Rng rng(8);
  std::vector<km::TrainingRun> runs;
  const std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {8, 4}, {16, 4}, {16, 8}, {32, 8}};
  for (const auto& [maps, reducers] : shapes) {
    runs.push_back(synthetic_run(rng, static_cast<double>(maps) * (128 << 20), maps, reducers,
                                 60.0));
  }
  const auto model = km::build_model("synthetic", runs);
  const auto& shuffle = model.class_model(kn::FlowKind::kShuffle);
  // Every (map, reducer) pair produced exactly one flow: slope ~= 1.
  EXPECT_NEAR(shuffle.count.fit.slope, 1.0, 1e-9);
  EXPECT_NEAR(shuffle.count.fit.r2, 1.0, 1e-9);
  EXPECT_EQ(shuffle.count.regressor, "maps_x_reducers");
  EXPECT_EQ(shuffle.count.predict(24 * 6, "shuffle"), 144u);
}

TEST(Builder, PhaseFractionsReflectTraining) {
  ku::Rng rng(9);
  std::vector<km::TrainingRun> runs = {synthetic_run(rng, 1e9, 16, 8, 100.0)};
  const auto model = km::build_model("synthetic", runs);
  const auto& shuffle = model.class_model(kn::FlowKind::kShuffle).temporal;
  EXPECT_NEAR(shuffle.phase_start_frac, 0.3, 0.05);
  EXPECT_NEAR(shuffle.phase_end_frac, 0.7, 0.05);
  const auto& write = model.class_model(kn::FlowKind::kHdfsWrite).temporal;
  EXPECT_GT(write.phase_start_frac, 0.7);
}

TEST(Builder, SizeModelFallsBackToEmpiricalOnPoorFit) {
  // A bimodal sample no single family fits well.
  ku::Rng rng(10);
  km::TrainingRun run;
  run.input_bytes = 1e9;
  run.num_maps = 4;
  run.num_reducers = 2;
  run.job_start = 0;
  run.job_end = 10;
  for (int i = 0; i < 200; ++i) {
    const double bytes = (i % 2 == 0) ? rng.normal(1000.0, 10.0) : rng.normal(1e8, 1e6);
    run.trace.add(flow(kn::FlowKind::kShuffle, bytes, 1.0, 2.0));
  }
  km::BuilderOptions options;
  options.parametric_ks_threshold = 0.05;
  const auto model = km::build_model("bimodal", {&run, 1}, options);
  EXPECT_EQ(model.class_model(kn::FlowKind::kShuffle).size.kind, km::SizeModelKind::kEmpirical);
}

TEST(Builder, DurationModelLinearAcrossSizes) {
  ku::Rng rng(11);
  std::vector<km::TrainingRun> runs;
  // Duration = 10 + input * 2e-8.
  for (const double gb : {1.0, 2.0, 4.0}) {
    const double input = gb * (1ull << 30);
    runs.push_back(synthetic_run(rng, input, 8, 4, 10.0 + input * 2e-8));
  }
  const auto model = km::build_model("synthetic", runs);
  EXPECT_NEAR(model.duration_model().slope, 2e-8, 1e-10);
  EXPECT_NEAR(model.duration_model().intercept, 10.0, 0.5);
  EXPECT_GT(model.duration_model().r2, 0.999);
}

TEST(Builder, SingleSizeDurationIsConstant) {
  ku::Rng rng(12);
  std::vector<km::TrainingRun> runs = {synthetic_run(rng, 1e9, 8, 4, 30.0),
                                       synthetic_run(rng, 1e9, 8, 4, 34.0)};
  const auto model = km::build_model("synthetic", runs);
  EXPECT_DOUBLE_EQ(model.duration_model().slope, 0.0);
  EXPECT_NEAR(model.duration_model().intercept, 32.0, 1e-9);
}

TEST(Builder, VolumeScalingThroughOrigin) {
  ku::Rng rng(13);
  std::vector<km::TrainingRun> runs;
  for (const double gb : {1.0, 2.0, 4.0}) {
    runs.push_back(synthetic_run(rng, gb * (1ull << 30),
                                 static_cast<std::size_t>(gb * 8), 4, 60.0));
  }
  const auto model = km::build_model("synthetic", runs);
  // Shuffle volume ~ input bytes (lognormal mean ~ input/(M*R) * M*R).
  const auto& vol = model.volume_model(kn::FlowKind::kShuffle);
  EXPECT_DOUBLE_EQ(vol.intercept, 0.0);
  EXPECT_NEAR(vol.slope, std::exp(0.3 * 0.3 / 2.0), 0.1);  // lognormal mean factor
  EXPECT_GT(model.predict_volume(kn::FlowKind::kShuffle, 1e9), 0.0);
}

TEST(Builder, ContextRecordsTrainingRange) {
  ku::Rng rng(14);
  std::vector<km::TrainingRun> runs = {synthetic_run(rng, 1e9, 8, 4, 30.0),
                                       synthetic_run(rng, 4e9, 32, 4, 60.0)};
  km::BuilderOptions options;
  options.block_size = 64ull << 20;
  options.replication = 2;
  options.cluster_nodes = 8;
  const auto model = km::build_model("synthetic", runs, options);
  EXPECT_EQ(model.context().num_runs, 2u);
  EXPECT_DOUBLE_EQ(model.context().min_input_bytes, 1e9);
  EXPECT_DOUBLE_EQ(model.context().max_input_bytes, 4e9);
  EXPECT_EQ(model.context().block_size, 64ull << 20);
  EXPECT_EQ(model.context().replication, 2u);
  EXPECT_EQ(model.context().cluster_nodes, 8u);
}

TEST(Builder, ClassWithNoFlowsStaysUntrained) {
  ku::Rng rng(15);
  std::vector<km::TrainingRun> runs = {synthetic_run(rng, 1e9, 8, 4, 30.0)};
  const auto model = km::build_model("synthetic", runs);
  const auto& read = model.class_model(kn::FlowKind::kHdfsRead);
  EXPECT_EQ(read.training_flows, 0u);
  EXPECT_FALSE(read.size.trained());
  EXPECT_EQ(read.count.predict(100.0, "hdfs_read"), 0u);
}

TEST(Builder, FullModelJsonRoundTripPreservesPredictions) {
  ku::Rng rng(16);
  std::vector<km::TrainingRun> runs;
  for (const double gb : {1.0, 2.0}) {
    runs.push_back(synthetic_run(rng, gb * (1ull << 30),
                                 static_cast<std::size_t>(gb * 8), 4, 30.0 * gb));
  }
  const auto model = km::build_model("synthetic", runs);
  const auto restored = km::KeddahModel::from_json(model.to_json());
  EXPECT_EQ(restored.job_name(), "synthetic");
  for (const auto kind : km::kModelledClasses) {
    EXPECT_EQ(restored.class_model(kind).count.predict(64.0, kn::flow_kind_name(kind)),
              model.class_model(kind).count.predict(64.0, kn::flow_kind_name(kind)))
        << kn::flow_kind_name(kind);
    EXPECT_NEAR(restored.predict_volume(kind, 3e9), model.predict_volume(kind, 3e9), 1.0);
  }
  EXPECT_NEAR(restored.predict_duration(3e9), model.predict_duration(3e9), 1e-6);
}

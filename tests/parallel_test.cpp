// The parallel scenario-execution subsystem: thread-pool mechanics
// (ordering, reuse, exception capture) and — the hard requirement — that
// fanning sweeps across worker threads is bit-identical to running them
// serially, at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>

#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace kc = keddah::core;
namespace kh = keddah::hadoop;
namespace ku = keddah::util;
namespace kw = keddah::workloads;

namespace {

constexpr std::uint64_t kMiB = 1ull << 20;

kh::ClusterConfig small_config() {
  kh::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  cfg.containers_per_node = 4;
  return cfg;
}

void expect_identical_traces(const keddah::capture::Trace& a, const keddah::capture::Trace& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& ra = a.records()[i];
    const auto& rb = b.records()[i];
    EXPECT_EQ(ra.src_id, rb.src_id);
    EXPECT_EQ(ra.dst_id, rb.dst_id);
    EXPECT_EQ(ra.src_port, rb.src_port);
    EXPECT_EQ(ra.dst_port, rb.dst_port);
    EXPECT_EQ(ra.job_id, rb.job_id);
    EXPECT_EQ(ra.truth, rb.truth);
    // Bit-identical, not merely close: same seed => same byte counts and
    // the very same timestamps regardless of which worker ran the task.
    EXPECT_EQ(ra.bytes, rb.bytes);
    EXPECT_EQ(ra.start, rb.start);
    EXPECT_EQ(ra.end, rb.end);
  }
}

}  // namespace

TEST(DeriveSeed, DeterministicDistinctAndIndexSensitive) {
  EXPECT_EQ(ku::derive_seed(42, 0), ku::derive_seed(42, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(ku::derive_seed(42, i));
  EXPECT_EQ(seen.size(), 1000u);  // no collisions across task indices
  EXPECT_NE(ku::derive_seed(42, 0), ku::derive_seed(43, 0));
  EXPECT_NE(ku::derive_seed(42, 0), 42u);  // child stream differs from parent
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  ku::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<int> slots(64, 0);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    pool.submit([&slots, i] { slots[i] = static_cast<int>(i) + 1; });
  }
  pool.wait_idle();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i) + 1);
  }
}

TEST(ThreadPool, ReusableAfterDrain) {
  ku::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(count.load(), 10 * (batch + 1));
  }
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  ku::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  bool ran = false;
  pool.submit([&ran] { ran = true; });
  pool.wait_idle();
  EXPECT_TRUE(ran);
}

TEST(ResolvedThreads, ZeroMeansHardwareConcurrency) {
  EXPECT_GE(ku::resolved_threads(0), 1u);
  EXPECT_EQ(ku::resolved_threads(7), 7u);
}

TEST(SweepRunner, ResultsOrderedByTaskIndexAtAnyThreadCount) {
  const auto square = [](std::size_t i) { return i * i; };
  kc::SweepRunner serial({.threads = 1});
  kc::SweepRunner parallel({.threads = 8});
  const auto a = serial.map(33, square);
  const auto b = parallel.map(33, square);
  ASSERT_EQ(a.size(), 33u);
  EXPECT_EQ(a, b);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], i * i);
}

TEST(SweepRunner, EmptySweepReturnsEmpty) {
  kc::SweepRunner runner({.threads = 4});
  EXPECT_TRUE(runner.map(0, [](std::size_t i) { return i; }).empty());
}

TEST(SweepRunner, RethrowsLowestIndexedException) {
  kc::SweepRunner runner({.threads = 4});
  try {
    runner.map(16, [](std::size_t i) -> int {
      if (i == 11) throw std::runtime_error("task 11 failed");
      if (i == 3) throw std::runtime_error("task 3 failed");
      return static_cast<int>(i);
    });
    FAIL() << "expected the sweep to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 3 failed");
  }
}

TEST(SweepRunner, SerialSweepPropagatesExceptionToo) {
  kc::SweepRunner runner({.threads = 1});
  EXPECT_THROW(runner.map(4,
                          [](std::size_t i) -> int {
                            if (i == 2) throw std::invalid_argument("bad cell");
                            return 0;
                          }),
               std::invalid_argument);
}

TEST(SweepRunner, ProgressCoversEveryTaskExactlyOnce) {
  kc::SweepOptions options;
  options.threads = 4;
  std::set<std::size_t> reported;
  std::size_t total_seen = 0;
  options.progress = [&](std::size_t done, std::size_t total) {
    reported.insert(done);
    total_seen = total;
  };
  kc::SweepRunner runner(std::move(options));
  runner.map(12, [](std::size_t i) { return i; });
  EXPECT_EQ(total_seen, 12u);
  ASSERT_EQ(reported.size(), 12u);  // monotone 1..12, each exactly once
  EXPECT_EQ(*reported.begin(), 1u);
  EXPECT_EQ(*reported.rbegin(), 12u);
}

TEST(ParallelDeterminism, RunGridBitIdenticalAcrossThreadCounts) {
  const auto cfg = small_config();
  const std::vector<kw::Workload> jobs = {kw::Workload::kSort, kw::Workload::kGrep};
  const std::vector<std::uint64_t> sizes = {128 * kMiB, 256 * kMiB};
  const auto serial = kw::run_grid(cfg, jobs, sizes, 2, 77, /*threads=*/1);
  const auto parallel = kw::run_grid(cfg, jobs, sizes, 2, 77, /*threads=*/4);
  ASSERT_EQ(serial.size(), 8u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].workload, parallel[i].workload);
    EXPECT_EQ(serial[i].input_bytes, parallel[i].input_bytes);
    EXPECT_EQ(serial[i].seed, parallel[i].seed);
    expect_identical_traces(serial[i].trace, parallel[i].trace);
  }
}

TEST(ParallelDeterminism, CaptureRunsBitIdenticalAcrossThreadCounts) {
  const auto cfg = small_config();
  kc::CaptureSpec spec;
  spec.workload = kw::Workload::kSort;
  spec.input_sizes = {128 * kMiB, 256 * kMiB};
  spec.repetitions = 2;
  spec.seed = 42;
  spec.threads = 1;
  const auto serial = kc::capture_runs(cfg, spec);
  spec.threads = 4;
  const auto parallel = kc::capture_runs(cfg, spec);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].input_bytes, parallel[i].input_bytes);
    EXPECT_EQ(serial[i].job_start, parallel[i].job_start);
    EXPECT_EQ(serial[i].job_end, parallel[i].job_end);
    expect_identical_traces(serial[i].trace, parallel[i].trace);
  }
}

TEST(ParallelDeterminism, ValidateModelRepetitionsIdenticalAcrossThreadCounts) {
  const auto cfg = small_config();
  kc::CaptureSpec capture;
  capture.workload = kw::Workload::kSort;
  capture.input_sizes = {256 * kMiB};
  capture.repetitions = 2;
  capture.seed = 7;
  capture.threads = 2;
  const auto runs = kc::capture_runs(cfg, capture);
  const auto model = kc::train("sort", runs, cfg);

  kc::ValidateSpec validate;
  validate.seed = 99;
  validate.repetitions = 3;
  validate.threads = 1;
  const auto serial = kc::validate_model(model, runs[0], cfg, validate);
  validate.threads = 4;
  const auto parallel = kc::validate_model(model, runs[0], cfg, validate);
  for (std::size_t k = 0; k < serial.classes.size(); ++k) {
    EXPECT_EQ(serial.classes[k].generated_flows, parallel.classes[k].generated_flows);
    EXPECT_EQ(serial.classes[k].generated_bytes, parallel.classes[k].generated_bytes);
    EXPECT_EQ(serial.classes[k].size_ks, parallel.classes[k].size_ks);
  }
  EXPECT_EQ(serial.generated_total_bytes, parallel.generated_total_bytes);
  EXPECT_EQ(serial.generated_span_s, parallel.generated_span_s);
}

TEST(ParallelDeterminism, RunScenariosMatchesSerialRunScenario) {
  const auto make_spec = [](std::uint64_t seed) {
    kc::ScenarioSpec spec;
    spec.cluster.racks = 2;
    spec.cluster.hosts_per_rack = 4;
    spec.cluster.block_size = 64ull << 20;
    spec.cluster.containers_per_node = 4;
    spec.seed = seed;
    kw::JobEntry job;
    job.workload = kw::Workload::kSort;
    job.input_bytes = 128 * kMiB;
    spec.jobs.push_back(job);
    return spec;
  };
  const std::vector<kc::ScenarioSpec> specs = {make_spec(5), make_spec(6), make_spec(7)};
  const auto batch = kc::run_scenarios(specs, /*threads=*/3);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto solo = kc::run_scenario(specs[i]);
    ASSERT_EQ(batch[i].results.size(), solo.results.size());
    expect_identical_traces(batch[i].trace, solo.trace);
  }
}

TEST(ParallelDeterminism, FaultedScenarioReplaysIdenticallyAcrossThreadCounts) {
  // A scenario with a transient outage mid-run exercises the whole
  // fault/recovery path (aborts, retries, backoff, node recovery). Its
  // capture must still be bit-identical whether it runs serially or in a
  // multi-threaded batch.
  const auto make_spec = [](std::uint64_t seed) {
    kc::ScenarioSpec spec;
    spec.cluster.racks = 2;
    spec.cluster.hosts_per_rack = 4;
    spec.cluster.block_size = 64ull << 20;
    spec.cluster.containers_per_node = 4;
    spec.seed = seed;
    kw::JobEntry job;
    job.workload = kw::Workload::kSort;
    job.input_bytes = 256 * kMiB;
    job.num_reducers = 4;
    spec.jobs.push_back(job);
    spec.faults.events.push_back(
        {keddah::hadoop::FaultKind::kOutage, /*worker=*/3, /*at=*/4.0,
         /*duration=*/3.0, /*factor=*/0.0});
    spec.faults.events.push_back(
        {keddah::hadoop::FaultKind::kDegradeLink, /*worker=*/5, /*at=*/1.0,
         /*duration=*/8.0, /*factor=*/0.2});
    return spec;
  };
  const std::vector<kc::ScenarioSpec> specs = {make_spec(11), make_spec(12), make_spec(13)};
  const auto batch = kc::run_scenarios(specs, /*threads=*/3);
  ASSERT_EQ(batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto solo = kc::run_scenario(specs[i]);
    ASSERT_EQ(batch[i].results.size(), solo.results.size());
    expect_identical_traces(batch[i].trace, solo.trace);
    // Recovery accounting replays identically too.
    EXPECT_EQ(batch[i].faults.fetch_retries, solo.faults.fetch_retries);
    EXPECT_EQ(batch[i].faults.fetch_backoff_s, solo.faults.fetch_backoff_s);
    EXPECT_EQ(batch[i].faults.aborted_flows, solo.faults.aborted_flows);
    EXPECT_EQ(batch[i].faults.aborted_bytes, solo.faults.aborted_bytes);
    EXPECT_EQ(batch[i].faults.map_reruns, solo.faults.map_reruns);
  }
}

TEST(ParallelDeterminism, FaultedScenarioIdenticalAcrossThreadsInBothSchedulerModes) {
  // Determinism stress for the incremental fair-share scheduler: the same
  // faulted batch must replay bit-identically at 1 vs 8 threads, with the
  // incremental scheduler AND with the reference full-recompute scheduler —
  // and the two modes must agree with each other, flow for flow.
  std::vector<kc::ScenarioSpec> specs;
  for (std::uint64_t seed : {21, 22, 23, 24}) {
    kc::ScenarioSpec spec;
    spec.cluster.racks = 2;
    spec.cluster.hosts_per_rack = 4;
    spec.cluster.block_size = 64ull << 20;
    spec.cluster.containers_per_node = 4;
    spec.seed = seed;
    kw::JobEntry job;
    job.workload = kw::Workload::kSort;
    job.input_bytes = 256 * kMiB;
    job.num_reducers = 4;
    spec.jobs.push_back(job);
    spec.faults.events.push_back({keddah::hadoop::FaultKind::kOutage, /*worker=*/2,
                                  /*at=*/3.0, /*duration=*/4.0, /*factor=*/0.0});
    spec.faults.events.push_back({keddah::hadoop::FaultKind::kDegradeLink, /*worker=*/6,
                                  /*at=*/1.5, /*duration=*/6.0, /*factor=*/0.25});
    specs.push_back(spec);
  }
  const auto run_mode = [&](const char* reference) {
    setenv("KEDDAH_REFERENCE_SCHEDULER", reference, 1);
    auto serial = kc::run_scenarios(specs, /*threads=*/1);
    auto threaded = kc::run_scenarios(specs, /*threads=*/8);
    unsetenv("KEDDAH_REFERENCE_SCHEDULER");
    for (std::size_t i = 0; i < specs.size(); ++i) {
      expect_identical_traces(serial[i].trace, threaded[i].trace);
      EXPECT_EQ(serial[i].faults.aborted_flows, threaded[i].faults.aborted_flows);
      EXPECT_EQ(serial[i].faults.aborted_bytes, threaded[i].faults.aborted_bytes);
    }
    return serial;
  };
  const auto incremental = run_mode("0");
  const auto reference = run_mode("1");
  for (std::size_t i = 0; i < specs.size(); ++i) {
    expect_identical_traces(incremental[i].trace, reference[i].trace);
  }
}

TEST(ScenarioSpec, ParsesOptionalThreadsField) {
  const auto doc = keddah::util::Json::parse(
      R"({"threads": 3, "jobs": [{"workload": "sort", "input": "256MB"}]})");
  const auto spec = kc::parse_scenario(doc);
  EXPECT_EQ(spec.threads, 3u);
  const auto doc_default = keddah::util::Json::parse(
      R"({"jobs": [{"workload": "sort", "input": "256MB"}]})");
  EXPECT_EQ(kc::parse_scenario(doc_default).threads, 0u);
}

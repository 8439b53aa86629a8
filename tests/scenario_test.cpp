// Tests for JSON scenario parsing and execution.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "keddah/scenario.h"
#include "util/json_reader.h"

namespace kc = keddah::core;
namespace kh = keddah::hadoop;
namespace ku = keddah::util;
namespace kw = keddah::workloads;

namespace {

ku::Json parse(const std::string& text) { return ku::Json::parse(text); }

const char* kBasicScenario = R"({
  "seed": 5,
  "cluster": { "racks": 2, "hosts_per_rack": 4, "block_size": "64MB", "replication": 2 },
  "jobs": [
    { "workload": "sort", "input": "256MB", "reducers": 2 },
    { "workload": "grep", "input": "128MB", "submit_at": 3.0 }
  ]
})";

}  // namespace

TEST(ScenarioParse, ClusterAndJobs) {
  const auto spec = kc::parse_scenario(parse(kBasicScenario));
  EXPECT_EQ(spec.seed, 5u);
  EXPECT_EQ(spec.cluster.racks, 2u);
  EXPECT_EQ(spec.cluster.block_size, 64ull << 20);
  EXPECT_EQ(spec.cluster.replication, 2u);
  ASSERT_EQ(spec.jobs.size(), 2u);
  EXPECT_EQ(spec.jobs[0].workload, kw::Workload::kSort);
  EXPECT_EQ(spec.jobs[0].input_bytes, 256ull << 20);
  EXPECT_EQ(spec.jobs[0].num_reducers, 2u);
  EXPECT_DOUBLE_EQ(spec.jobs[0].submit_at, 0.0);
  EXPECT_EQ(spec.jobs[1].workload, kw::Workload::kGrep);
  EXPECT_DOUBLE_EQ(spec.jobs[1].submit_at, 3.0);
  EXPECT_EQ(spec.jobs[1].iterations, 1u);
}

TEST(ScenarioParse, DefaultsApply) {
  const auto spec = kc::parse_scenario(
      parse(R"({"jobs": [{"workload": "sort", "input": 1048576}]})"));
  EXPECT_EQ(spec.seed, 1u);
  EXPECT_EQ(spec.cluster.racks, 4u);
  EXPECT_EQ(spec.cluster.topology, kh::TopologyKind::kRackTree);
  EXPECT_EQ(spec.jobs[0].input_bytes, 1048576u);
}

TEST(ScenarioParse, ErrorsAreSpecific) {
  EXPECT_THROW(kc::parse_scenario(parse(R"({"jobs": []})")), std::invalid_argument);
  EXPECT_THROW(kc::parse_scenario(parse(R"({})")), std::invalid_argument);
  EXPECT_THROW(kc::parse_scenario(parse(R"({"jobs": [{"input": "1GB"}]})")),
               std::invalid_argument);
  EXPECT_THROW(kc::parse_scenario(parse(R"({"jobs": [{"workload": "sort"}]})")),
               std::invalid_argument);
  EXPECT_THROW(
      kc::parse_scenario(parse(
          R"({"jobs": [{"workload": "sort", "input": "1GB", "iterations": 0}]})")),
      std::invalid_argument);
  EXPECT_THROW(
      kc::parse_scenario(parse(
          R"({"cluster": {"topology": "ring"}, "jobs": [{"workload": "sort", "input": "1GB"}]})")),
      std::invalid_argument);
  // Master (worker 0) cannot be failed.
  EXPECT_THROW(
      kc::parse_scenario(parse(
          R"({"jobs": [{"workload": "sort", "input": "1GB"}],
              "failures": [{"worker": 0, "at": 1.0}]})")),
      std::invalid_argument);
}

TEST(ScenarioRun, ExecutesConcurrentJobs) {
  const auto spec = kc::parse_scenario(parse(kBasicScenario));
  const auto outcome = kc::run_scenario(spec);
  ASSERT_EQ(outcome.results.size(), 2u);
  EXPECT_GT(outcome.trace.size(), 0u);
  EXPECT_FALSE(outcome.history.empty());
  // Results arrive in completion order; both jobs present by name.
  std::set<std::string> names;
  for (const auto& r : outcome.results) names.insert(r.job_name);
  EXPECT_EQ(names.size(), 2u);
}

TEST(ScenarioRun, IterationsChain) {
  const auto spec = kc::parse_scenario(parse(R"({
    "cluster": { "racks": 2, "hosts_per_rack": 4, "block_size": "64MB" },
    "jobs": [ { "workload": "pagerank", "input": "256MB", "reducers": 2, "iterations": 3 } ]
  })"));
  const auto outcome = kc::run_scenario(spec);
  ASSERT_EQ(outcome.results.size(), 3u);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_EQ(outcome.results[i].input_bytes, outcome.results[i - 1].output_bytes);
  }
}

TEST(ScenarioRun, FailureInjectionTriggersRepair) {
  const auto spec = kc::parse_scenario(parse(R"({
    "cluster": { "racks": 2, "hosts_per_rack": 4, "block_size": "64MB" },
    "jobs": [ { "workload": "sort", "input": "512MB", "reducers": 4 } ],
    "failures": [ { "worker": 3, "at": 4.0 } ]
  })"));
  const auto outcome = kc::run_scenario(spec);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_GT(outcome.rereplications, 0u);
}

// A capture run (run_single) and a one-entry scenario submit through the
// same job engine, so they capture byte-identical traces, clean and under a
// crash.
TEST(ScenarioRun, OneEntryScenarioMatchesRunSingle) {
  kh::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  kh::FaultPlan crash;
  crash.events.push_back({kh::FaultKind::kCrash, /*worker=*/3, /*at=*/4.0});
  for (const auto& [seed, faults] : {std::pair{std::uint64_t{7}, kh::FaultPlan{}},
                                     std::pair{std::uint64_t{20261017}, crash}}) {
    SCOPED_TRACE(seed);
    const auto single = kw::run_single(cfg, kw::Workload::kSort, 512ull << 20, 0, seed, faults);
    kc::ScenarioSpec spec;
    spec.cluster = cfg;
    spec.seed = seed;
    spec.faults = faults;
    spec.jobs.push_back({kw::Workload::kSort, 512ull << 20});
    const auto scenario = kc::run_scenario(spec);
    ASSERT_EQ(scenario.results.size(), 1u);
    EXPECT_EQ(single.faults.crashes, faults.size());
    std::ostringstream single_csv;
    std::ostringstream scenario_csv;
    single.trace.to_csv().write(single_csv);
    scenario.trace.to_csv().write(scenario_csv);
    EXPECT_EQ(single_csv.str(), scenario_csv.str());
    EXPECT_EQ(single.result.submit_time, scenario.results[0].submit_time);
    EXPECT_EQ(single.result.end_time, scenario.results[0].end_time);
  }
}

TEST(ScenarioRun, OutOfRangeFailureWorkerThrows) {
  auto spec = kc::parse_scenario(parse(kBasicScenario));
  kh::FaultEvent event;
  event.kind = kh::FaultKind::kCrash;
  event.worker = 99;
  event.at = 1.0;
  spec.faults.events.push_back(event);
  EXPECT_THROW(kc::run_scenario(spec), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Fault-plan parsing: schema, legacy alias, and per-field rejection paths.

std::string fault_scenario(const std::string& faults_json) {
  return std::string(R"({
    "cluster": { "racks": 2, "hosts_per_rack": 4 },
    "jobs": [ { "workload": "sort", "input": "256MB" } ],
    "faults": )") +
         faults_json + "}";
}

TEST(ScenarioParse, FaultPlanParses) {
  const auto spec = kc::parse_scenario(parse(fault_scenario(R"([
    { "kind": "crash",        "worker": 5, "at": 12.5 },
    { "kind": "outage",       "worker": 3, "at": 10.0, "duration": 15.0 },
    { "kind": "degrade_link", "worker": 2, "at": 5.0, "duration": 20.0, "factor": 0.1 },
    { "kind": "slow_node",    "worker": 1, "at": 0.0, "duration": 30.0, "factor": 4.0 }
  ])")));
  ASSERT_EQ(spec.faults.size(), 4u);
  EXPECT_EQ(spec.faults.events[0].kind, kh::FaultKind::kCrash);
  EXPECT_EQ(spec.faults.events[1].kind, kh::FaultKind::kOutage);
  EXPECT_DOUBLE_EQ(spec.faults.events[1].duration, 15.0);
  EXPECT_EQ(spec.faults.events[2].kind, kh::FaultKind::kDegradeLink);
  EXPECT_DOUBLE_EQ(spec.faults.events[2].factor, 0.1);
  EXPECT_EQ(spec.faults.events[3].kind, kh::FaultKind::kSlowNode);
}

TEST(ScenarioParse, LegacyFailuresBecomeCrashFaults) {
  const auto spec = kc::parse_scenario(parse(R"({
    "cluster": { "racks": 2, "hosts_per_rack": 4 },
    "jobs": [ { "workload": "sort", "input": "256MB" } ],
    "failures": [ { "worker": 5, "at": 12.5 } ]
  })"));
  ASSERT_EQ(spec.faults.size(), 1u);
  EXPECT_EQ(spec.faults.events[0].kind, kh::FaultKind::kCrash);
  EXPECT_EQ(spec.faults.events[0].worker, 5u);
  EXPECT_DOUBLE_EQ(spec.faults.events[0].at, 12.5);
}

/// Expects parse_scenario to throw and the message to contain `needle`.
void expect_fault_rejection(const std::string& faults_json, const std::string& needle,
                            const std::string& context = "scenario") {
  try {
    kc::parse_scenario(parse(fault_scenario(faults_json)), context);
    FAIL() << "expected rejection of " << faults_json;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message: " << e.what();
  }
}

TEST(ScenarioParse, FaultRejectsUnknownKind) {
  expect_fault_rejection(R"([{ "kind": "meteor", "worker": 1, "at": 0.0 }])",
                         "faults[0].kind: unknown fault kind 'meteor'");
}

TEST(ScenarioParse, FaultRejectsMasterWorker) {
  expect_fault_rejection(R"([{ "kind": "crash", "worker": 0, "at": 0.0 }])",
                         "faults[0].worker: worker 0 co-hosts the master");
}

TEST(ScenarioParse, FaultRejectsOutOfRangeWorker) {
  // 2 racks x 4 hosts = 8 workers; index 8 is one past the end.
  expect_fault_rejection(R"([{ "kind": "crash", "worker": 8, "at": 0.0 }])",
                         "faults[0].worker: worker 8 does not exist (cluster has workers 0..7)");
}

TEST(ScenarioParse, FaultRejectsNegativeTime) {
  expect_fault_rejection(R"([{ "kind": "crash", "worker": 1, "at": -2.0 }])",
                         "faults[0].at: injection time must be >= 0");
}

TEST(ScenarioParse, FaultRejectsNonNumericTime) {
  expect_fault_rejection(R"([{ "kind": "crash", "worker": 1, "at": "soon" }])",
                         "faults[0].at: must be a finite number");
}

TEST(ScenarioParse, FaultRejectsZeroOutageDuration) {
  expect_fault_rejection(R"([{ "kind": "outage", "worker": 1, "at": 0.0 }])",
                         "faults[0].duration: transient faults need a window length > 0");
}

TEST(ScenarioParse, FaultRejectsBadDegradeFactor) {
  expect_fault_rejection(
      R"([{ "kind": "degrade_link", "worker": 1, "at": 0.0, "duration": 5.0, "factor": 1.5 }])",
      "faults[0].factor: degrade_link factor must be in (0, 1)");
}

TEST(ScenarioParse, FaultRejectsBadSlowFactor) {
  expect_fault_rejection(
      R"([{ "kind": "slow_node", "worker": 1, "at": 0.0, "duration": 5.0, "factor": 0.5 }])",
      "faults[0].factor: slow_node factor must be > 1");
}

TEST(ScenarioParse, FaultRejectsMissingWorker) {
  expect_fault_rejection(R"([{ "kind": "crash", "at": 1.0 }])",
                         "faults[0].worker: missing required key");
}

TEST(ScenarioParse, FaultErrorNamesContextAndIndex) {
  // The error message must point at the offending source and entry, the way
  // load_scenario reports the file path.
  expect_fault_rejection(R"([
      { "kind": "crash", "worker": 1, "at": 0.0 },
      { "kind": "outage", "worker": 1, "at": 0.0 }
    ])",
                         "exp.json: faults[1]", "exp.json");
}

TEST(ScenarioParse, FaultErrorFromFileNamesFile) {
  const std::string file = ::testing::TempDir() + "/keddah_bad_faults.json";
  {
    std::ofstream out(file);
    out << fault_scenario(R"([{ "kind": "crash", "worker": 99, "at": 0.0 }])");
  }
  try {
    kc::load_scenario(file);
    FAIL() << "expected out-of-range rejection";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(file), std::string::npos) << e.what();
  }
  std::filesystem::remove(file);
}

// Each of these documents used to be accepted (or to crash the process)
// although keddah-lint rejected it; the parser now rejects it with lint's
// key path.
void expect_key_path_error(const std::string& json, const std::string& key) {
  try {
    kc::parse_scenario(parse(json), "doc.json");
    FAIL() << "expected rejection at " << key << " of " << json;
  } catch (const ku::SpecError& e) {
    EXPECT_EQ(e.file(), "doc.json");
    EXPECT_EQ(e.key(), key) << e.what();
    EXPECT_EQ(std::string(e.what()).find("doc.json: " + key + ": "), 0u) << e.what();
  }
}

TEST(ScenarioParse, RejectsNonStringFaultKind) {
  expect_key_path_error(fault_scenario(R"([{ "kind": 3, "worker": 1, "at": 0.0 }])"),
                        "faults[0].kind");
}

TEST(ScenarioParse, RejectsSlowstartOutsideUnitInterval) {
  expect_key_path_error(
      R"({"cluster": {"slowstart": 2}, "jobs": [{"workload": "sort", "input": "1GB"}]})",
      "cluster.slowstart");
}

TEST(ScenarioParse, RejectsNegativeInput) {
  expect_key_path_error(R"({"jobs": [{"workload": "sort", "input": -5}]})", "jobs[0].input");
}

TEST(ScenarioParse, RejectsNegativeReducers) {
  expect_key_path_error(R"({"jobs": [{"workload": "sort", "input": "1GB", "reducers": -2}]})",
                        "jobs[0].reducers");
}

TEST(ScenarioParse, RejectsStringSeed) {
  expect_key_path_error(R"({"seed": "7", "jobs": [{"workload": "sort", "input": "1GB"}]})",
                        "seed");
}

TEST(ScenarioParse, LegacyFailuresReportUnderTheirOwnKey) {
  expect_key_path_error(R"({"jobs": [{"workload": "sort", "input": "1GB"}],
                            "failures": [{"worker": 0, "at": 1.0}]})",
                        "failures[0].worker");
}

TEST(ScenarioRun, FaultStatsSurfaceInOutcome) {
  const auto spec = kc::parse_scenario(parse(fault_scenario(
      R"([{ "kind": "crash", "worker": 3, "at": 4.0 }])")));
  const auto outcome = kc::run_scenario(spec);
  ASSERT_EQ(outcome.results.size(), 1u);
  EXPECT_EQ(outcome.faults.crashes, 1u);
  EXPECT_EQ(outcome.faults.rereplications, outcome.rereplications);
}

TEST(ScenarioCli, RunScenarioCommand) {
  const std::string file = ::testing::TempDir() + "/keddah_scenario_cli.json";
  {
    std::ofstream out(file);
    out << R"({
      "cluster": { "racks": 2, "hosts_per_rack": 4, "block_size": "64MB" },
      "jobs": [ { "workload": "grep", "input": "128MB", "reducers": 2 } ]
    })";
  }
  std::ostringstream out;
  std::ostringstream err;
  const int code = keddah::cli::run({"run-scenario", "--file", file}, out, err);
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("grep_j0_i0"), std::string::npos);
  EXPECT_NE(out.str().find("captured"), std::string::npos);
  std::filesystem::remove(file);
}

TEST(ScenarioCli, MissingFileFlag) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(keddah::cli::run({"run-scenario"}, out, err), 2);
  EXPECT_NE(err.str().find("--file"), std::string::npos);
}

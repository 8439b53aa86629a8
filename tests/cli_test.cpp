// Tests for the argument parser and the keddah CLI subcommands (driven
// in-process through keddah::cli::run).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cli/cli.h"
#include "util/args.h"
#include "util/strings.h"

namespace ku = keddah::util;

namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run_cli(const std::vector<std::string>& tokens) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = keddah::cli::run(tokens, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) { return ::testing::TempDir() + "/" + name; }

}  // namespace

// ---------------------------------------------------------------- args

TEST(Args, PositionalsAndFlags) {
  const auto args = ku::Args::parse({"capture", "--job", "sort", "--reps=3", "--verbose"});
  ASSERT_EQ(args.positionals().size(), 1u);
  EXPECT_EQ(args.positionals()[0], "capture");
  EXPECT_EQ(args.get("job", ""), "sort");
  EXPECT_EQ(args.get_int("reps", 0), 3);
  EXPECT_TRUE(args.get_bool("verbose"));
  EXPECT_FALSE(args.get_bool("quiet"));
}

TEST(Args, EqualsAndSpaceForms) {
  const auto args = ku::Args::parse({"--a=1", "--b", "2"});
  EXPECT_EQ(args.get_int("a", 0), 1);
  EXPECT_EQ(args.get_int("b", 0), 2);
}

TEST(Args, BooleanBeforeAnotherFlag) {
  const auto args = ku::Args::parse({"--flag", "--other", "x"});
  EXPECT_TRUE(args.get_bool("flag"));
  EXPECT_EQ(args.get("other", ""), "x");
}

TEST(Args, ByteSizes) {
  const auto args = ku::Args::parse({"--size", "2GB"});
  EXPECT_EQ(args.get_bytes("size", 0), 2ull << 30);
  EXPECT_EQ(args.get_bytes("missing", 42), 42u);
}

TEST(Args, BadValuesThrow) {
  const auto args = ku::Args::parse({"--n", "abc", "--size", "zz", "--b", "maybe"});
  EXPECT_THROW(args.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_double("n", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bytes("size", 0), std::invalid_argument);
  EXPECT_THROW(args.get_bool("b"), std::invalid_argument);
}

TEST(Args, MalformedFlagThrows) {
  EXPECT_THROW(ku::Args::parse({"---x"}), std::invalid_argument);
  EXPECT_THROW(ku::Args::parse({"--"}), std::invalid_argument);
}

TEST(Args, UnusedKeysTracked) {
  const auto args = ku::Args::parse({"--used", "1", "--typo", "2"});
  EXPECT_EQ(args.get_int("used", 0), 1);
  const auto unused = args.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(Args, RejectUnknownSuggestsNearestFlag) {
  const auto args = ku::Args::parse({"--reducer", "4"});
  (void)args.get_int("reducers", 0);
  (void)args.get_int("seed", 0);
  try {
    args.reject_unknown();
    FAIL() << "expected UsageError";
  } catch (const ku::UsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--reducer"), std::string::npos);
    EXPECT_NE(what.find("did you mean --reducers?"), std::string::npos) << what;
  }
}

TEST(Args, RejectUnknownOmitsFarfetchedSuggestions) {
  const auto args = ku::Args::parse({"--zzzzzz", "1"});
  (void)args.get_int("seed", 0);
  try {
    args.reject_unknown();
    FAIL() << "expected UsageError";
  } catch (const ku::UsageError& e) {
    EXPECT_EQ(std::string(e.what()).find("did you mean"), std::string::npos) << e.what();
  }
}

TEST(Args, RejectUnknownPassesWhenAllFlagsRead) {
  const auto args = ku::Args::parse({"--seed", "1"});
  (void)args.get_int("seed", 0);
  EXPECT_NO_THROW(args.reject_unknown());
}

TEST(Args, EditDistanceIsLevenshtein) {
  EXPECT_EQ(ku::edit_distance("", ""), 0u);
  EXPECT_EQ(ku::edit_distance("abc", ""), 3u);
  EXPECT_EQ(ku::edit_distance("", "abc"), 3u);
  EXPECT_EQ(ku::edit_distance("reducer", "reducers"), 1u);
  EXPECT_EQ(ku::edit_distance("kitten", "sitting"), 3u);
  EXPECT_EQ(ku::edit_distance("flaw", "lawn"), 2u);
}

// ---------------------------------------------------------------- cli

TEST(Cli, HelpAndUnknownCommand) {
  const auto help = run_cli({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("capture"), std::string::npos);
  const auto nothing = run_cli({});
  EXPECT_EQ(nothing.code, 2);
  const auto unknown = run_cli({"frobnicate"});
  EXPECT_EQ(unknown.code, 2);
  EXPECT_NE(unknown.err.find("unknown subcommand"), std::string::npos);
}

TEST(Cli, RejectsUnknownFlags) {
  const auto result = run_cli({"capture", "--job", "sort", "--bogus-flag", "7"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--bogus-flag"), std::string::npos);
}

TEST(Cli, FullPipeline) {
  const std::string run_base = temp_path("cli_pipe_run");
  const std::string model_path = temp_path("cli_pipe_model.json");
  const std::string schedule_path = temp_path("cli_pipe_schedule.csv");
  const std::string ns3_base = temp_path("cli_pipe_ns3");

  // capture
  auto result = run_cli({"capture", "--job", "grep", "--input", "256MB", "--reps", "2",
                         "--out", run_base, "--seed", "9", "--racks", "2", "--block-size",
                         "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_TRUE(std::filesystem::exists(run_base + "_0.csv"));
  EXPECT_TRUE(std::filesystem::exists(run_base + "_1.meta.json"));

  // train
  result = run_cli({"train", "--runs", run_base + "_0," + run_base + "_1", "--name", "grep",
                    "--out", model_path, "--racks", "2", "--block-size", "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_TRUE(std::filesystem::exists(model_path));
  EXPECT_NE(result.out.find("shuffle"), std::string::npos);

  // generate
  result = run_cli({"generate", "--model", model_path, "--input", "512MB", "--hosts", "8",
                    "--out", schedule_path});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_TRUE(std::filesystem::exists(schedule_path));

  // replay
  result = run_cli({"replay", "--schedule", schedule_path, "--racks", "2"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("makespan"), std::string::npos);

  // validate
  result = run_cli({"validate", "--model", model_path, "--run", run_base + "_0", "--racks",
                    "2", "--block-size", "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("vol_err"), std::string::npos);

  // export-ns3
  result = run_cli({"export-ns3", "--schedule", schedule_path, "--out", ns3_base});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_TRUE(std::filesystem::exists(ns3_base + ".cc"));
  EXPECT_TRUE(std::filesystem::exists(ns3_base + ".csv"));

  for (const auto& p :
       {run_base + "_0.csv", run_base + "_0.meta.json", run_base + "_1.csv",
        run_base + "_1.meta.json", model_path, schedule_path, ns3_base + ".cc",
        ns3_base + ".csv"}) {
    std::filesystem::remove(p);
  }
}

TEST(Cli, TrainWithoutRunsFails) {
  const auto result = run_cli({"train", "--name", "x"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--runs"), std::string::npos);
}

TEST(Cli, MissingFilesReportedAsErrors) {
  const auto result = run_cli({"generate", "--model", "/nonexistent/model.json"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("error"), std::string::npos);
  const auto replay = run_cli({"replay", "--schedule", "/nonexistent/sched.csv"});
  EXPECT_EQ(replay.code, 1);
}

TEST(Cli, GenerateRejectsDefectiveModelsNamingTheKey) {
  // A bank handed over as a model used to load as an empty model and
  // "generate 0 flows"; a class without "count" failed with a bare
  // "json: missing key 'count'".
  const std::string bank_path = temp_path("cli_bank_as_model.json");
  std::ofstream(bank_path) << R"({"models": [{"job_name": "sort", "classes": {}}]})";
  const std::string schedule_path = temp_path("cli_defective_schedule.csv");
  std::filesystem::remove(schedule_path);
  auto result = run_cli({"generate", "--model", bank_path, "--out", schedule_path});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find(bank_path + ": job_name: missing or empty job name"),
            std::string::npos)
      << result.err;

  const std::string model_path = temp_path("cli_model_without_count.json");
  std::ofstream(model_path) << R"({"job_name": "sort", "classes": {"shuffle": {
      "size": {"kind": "empirical", "empirical": [1, 2, 3]},
      "temporal": {"offsets": [0, 1]}}}})";
  result = run_cli({"generate", "--model", model_path, "--out", schedule_path});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find(model_path + ": classes.shuffle.count: missing required key"),
            std::string::npos)
      << result.err;
  EXPECT_FALSE(std::filesystem::exists(schedule_path));
  std::filesystem::remove(bank_path);
  std::filesystem::remove(model_path);
}

TEST(Cli, ClusterFlagsAreRangeChecked) {
  // slowstart > 1 never releases the reducers; the run used to spin forever.
  const auto result = run_cli({"capture", "--slowstart", "2", "--input", "64MB"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("command line: cluster.slowstart: slowstart must be in [0, 1]"),
            std::string::npos)
      << result.err;
  const auto replication = run_cli({"capture", "--replication", "0", "--input", "64MB"});
  EXPECT_EQ(replication.code, 1);
  EXPECT_NE(replication.err.find("cluster.replication"), std::string::npos) << replication.err;
}

TEST(Cli, BadTopologyRejected) {
  const auto result = run_cli({"capture", "--topology", "torus"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("torus"), std::string::npos);
}

TEST(Cli, CaptureOnFatTreeWorks) {
  const std::string run_base = temp_path("cli_ft_run");
  const auto result = run_cli({"capture", "--job", "sort", "--input", "256MB", "--out",
                               run_base, "--topology", "fattree", "--fat-tree-k", "4",
                               "--block-size", "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  std::filesystem::remove(run_base + "_0.csv");
  std::filesystem::remove(run_base + "_0.meta.json");
}

TEST(Cli, ReportSummarizesModel) {
  const std::string run_base = temp_path("cli_report_run");
  const std::string model_path = temp_path("cli_report_model.json");
  auto result = run_cli({"capture", "--job", "sort", "--input", "256MB", "--out", run_base,
                         "--racks", "2", "--block-size", "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  result = run_cli({"train", "--runs", run_base + "_0", "--name", "sort", "--out", model_path,
                    "--racks", "2", "--block-size", "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  result = run_cli({"report", "--model", model_path});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("Keddah model report: sort"), std::string::npos);
  EXPECT_NE(result.out.find("count law"), std::string::npos);
  EXPECT_NE(result.out.find("Phase windows"), std::string::npos);
  for (const auto& p : {run_base + "_0.csv", run_base + "_0.meta.json", model_path}) {
    std::filesystem::remove(p);
  }
}

TEST(Cli, AnalyzeCharacterizesTrace) {
  const std::string run_base = temp_path("cli_analyze_run");
  auto result = run_cli({"capture", "--job", "sort", "--input", "256MB", "--out", run_base,
                         "--racks", "2", "--block-size", "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  result = run_cli({"analyze", "--trace", run_base + "_0.csv"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("hotspot factor"), std::string::npos);
  EXPECT_NE(result.out.find("throughput profile"), std::string::npos);
  EXPECT_NE(result.out.find("shuffle"), std::string::npos);
  // No history given: no attribution section.
  EXPECT_EQ(result.out.find("attribution"), std::string::npos);
  const auto missing = run_cli({"analyze"});
  EXPECT_EQ(missing.code, 2);
  std::filesystem::remove(run_base + "_0.csv");
  std::filesystem::remove(run_base + "_0.meta.json");
}

// analyze exits 1 on every malformed-trace fixture, printing the loader's
// "path: row N: column: message" instead of fitting garbage.
TEST(Cli, AnalyzeRejectsMalformedTraceFixtures) {
  for (const auto& entry : std::filesystem::directory_iterator(KEDDAH_TRACE_FIXTURES)) {
    const std::string path = entry.path().string();
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    const auto result = run_cli({"analyze", "--trace", path});
    EXPECT_EQ(result.code, 1) << path;
    EXPECT_EQ(result.err, "error: " + path + ": " + first.substr(first.find(": ") + 2) + "\n");
    EXPECT_EQ(result.out, "") << path;
  }
}

// replay exits 1 on every malformed-schedule fixture, printing the
// loader's "path: row N: column: message" instead of replaying the rows it
// could read.
TEST(Cli, ReplayRejectsMalformedScheduleFixtures) {
  std::size_t fixtures = 0;
  for (const auto& entry : std::filesystem::directory_iterator(KEDDAH_SCHEDULE_FIXTURES)) {
    const std::string path = entry.path().string();
    std::ifstream in(path);
    std::string first;
    std::getline(in, first);
    const auto result = run_cli({"replay", "--schedule", path});
    EXPECT_EQ(result.code, 1) << path;
    EXPECT_EQ(result.err, "error: " + path + ": " + first.substr(first.find(": ") + 2) + "\n");
    EXPECT_EQ(result.out, "") << path;
    ++fixtures;
  }
  EXPECT_GE(fixtures, 7u);
}

TEST(Cli, CalibrateEstimatesSelectivities) {
  const std::string run_base = temp_path("cli_cal_run");
  auto result = run_cli({"capture", "--job", "sort", "--input", "512MB", "--out", run_base,
                         "--racks", "2", "--block-size", "64MB"});
  ASSERT_EQ(result.code, 0) << result.err;
  result = run_cli({"calibrate", "--run", run_base + "_0", "--nodes", "8"});
  ASSERT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("map selectivity"), std::string::npos);
  EXPECT_NE(result.out.find("reduce selectivity"), std::string::npos);
  const auto missing = run_cli({"calibrate"});
  EXPECT_EQ(missing.code, 2);
  std::filesystem::remove(run_base + "_0.csv");
  std::filesystem::remove(run_base + "_0.meta.json");
}

// Tests for keddah-lint: every seeded-defect fixture under
// tests/fixtures/lint must produce an error diagnostic naming the file and
// the offending JSON key, and every shipped example scenario must lint
// clean. Fixture/example locations come from compile definitions set by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "api/specs.h"
#include "hadoop/faults.h"
#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "lint/lint.h"
#include "model/model_bank.h"
#include "util/json.h"
#include "util/json_reader.h"

namespace kl = keddah::lint;
namespace ku = keddah::util;

namespace {

std::string fixture(const std::string& name) {
  return std::string(KEDDAH_LINT_FIXTURES) + "/" + name;
}

std::string example_scenario(const std::string& name) {
  return std::string(KEDDAH_EXAMPLE_SCENARIOS) + "/" + name;
}

/// Lints a fixture and asserts it fails with at least one error whose key
/// contains `key_fragment` and whose file names the fixture.
kl::LintReport expect_error_at(const std::string& name, const std::string& key_fragment) {
  const std::string path = fixture(name);
  const auto report = kl::lint_file(path);
  EXPECT_FALSE(report.ok()) << name << " should lint with errors";
  bool found = false;
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.file, path);
    if (d.severity == kl::Severity::kError &&
        d.key.find(key_fragment) != std::string::npos) {
      found = true;
      EXPECT_FALSE(d.message.empty());
    }
  }
  EXPECT_TRUE(found) << name << ": no error diagnostic at a key containing '" << key_fragment
                     << "'";
  return report;
}

}  // namespace

TEST(LintFixtures, UnknownWorkerReference) {
  const auto report = expect_error_at("scenario_unknown_worker.json", "faults[0].worker");
  EXPECT_EQ(report.kind, kl::FileKind::kScenario);
}

TEST(LintFixtures, DuplicateFault) {
  expect_error_at("scenario_duplicate_fault.json", "faults[1]");
}

TEST(LintFixtures, FaultWindowOutsideHorizon) {
  expect_error_at("scenario_fault_outside_horizon.json", "faults[0]");
}

TEST(LintFixtures, CrashThenRecoverOfDeadNode) {
  const auto report = expect_error_at("scenario_crash_then_recover.json", "faults[1]");
  // The crash itself is fine; only the later event on the dead worker errs.
  EXPECT_EQ(report.num_errors(), 1u);
}

TEST(LintFixtures, MasterWorkerCannotBeFaulted) {
  expect_error_at("scenario_master_fault.json", "faults[0].worker");
}

TEST(LintFixtures, ReplicationExceedsClusterSize) {
  expect_error_at("scenario_replication_exceeds_cluster.json", "cluster.replication");
}

TEST(LintFixtures, UnknownWorkloadNamesAlternatives) {
  const auto report = expect_error_at("scenario_unknown_workload.json", "jobs[0].workload");
  bool hint_lists_workloads = false;
  for (const auto& d : report.diagnostics) {
    if (d.hint.find("sort") != std::string::npos) hint_lists_workloads = true;
  }
  EXPECT_TRUE(hint_lists_workloads);
}

TEST(LintFixtures, DuplicateJsonKeyIsDiagnosedNotThrown) {
  const auto report = expect_error_at("scenario_duplicate_key.json", "$");
  bool names_key = false;
  for (const auto& d : report.diagnostics) {
    if (d.message.find("seed") != std::string::npos) names_key = true;
  }
  EXPECT_TRUE(names_key) << "syntax diagnostic should carry the duplicated key name";
}

TEST(LintFixtures, StandaloneFaultPlanFactors) {
  const auto report = expect_error_at("faultplan_bad_factor.json", "[0].factor");
  EXPECT_EQ(report.kind, kl::FileKind::kFaultPlan);
  expect_error_at("faultplan_bad_factor.json", "[1].factor");
}

TEST(LintFixtures, NonMonotoneEcdf) {
  const auto report =
      expect_error_at("model_nonmonotone_ecdf.json", "classes.shuffle.size.empirical[2]");
  EXPECT_EQ(report.kind, kl::FileKind::kModel);
}

TEST(LintFixtures, NanDistributionParameter) {
  expect_error_at("model_nan_params.json", "classes.shuffle.size.parametric.p1");
}

TEST(LintFixtures, NegativeDistributionParameter) {
  expect_error_at("model_negative_params.json", "classes.hdfs_write.size.parametric.p2");
}

TEST(LintFixtures, ModelReplicationExceedsNodes) {
  expect_error_at("model_replication_exceeds_nodes.json", "context.replication");
}

TEST(LintFixtures, BankEntriesGetIndexedKeys) {
  const auto report = expect_error_at("bank_bad_entry.json", "models[1].job_name");
  EXPECT_EQ(report.kind, kl::FileKind::kModelBank);
  expect_error_at("bank_bad_entry.json", "models[1].classes.shuffle.temporal");
}

TEST(LintFixtures, NonStringFaultKind) {
  expect_error_at("scenario_fault_kind_number.json", "faults[0].kind");
}

TEST(LintFixtures, SlowstartOutsideUnitInterval) {
  expect_error_at("scenario_slowstart_out_of_range.json", "cluster.slowstart");
}

TEST(LintFixtures, NegativeInput) {
  expect_error_at("scenario_negative_input.json", "jobs[0].input");
}

TEST(LintFixtures, NegativeReducers) {
  expect_error_at("scenario_negative_reducers.json", "jobs[0].reducers");
}

TEST(LintFixtures, StringSeed) { expect_error_at("scenario_seed_string.json", "seed"); }

TEST(LintExamples, ShippedScenariosAreClean) {
  for (const char* name : {"clean.json", "crash.json", "outage.json", "degraded_link.json"}) {
    const auto report = kl::lint_file(example_scenario(name));
    EXPECT_EQ(report.kind, kl::FileKind::kScenario) << name;
    EXPECT_TRUE(report.diagnostics.empty())
        << name << ": " << (report.diagnostics.empty()
                                ? ""
                                : report.diagnostics.front().to_string());
  }
}

TEST(LintDocument, SniffsKindsFromShape) {
  EXPECT_EQ(kl::lint_document(ku::Json::parse(R"({"jobs": []})"), "f").kind,
            kl::FileKind::kScenario);
  EXPECT_EQ(kl::lint_document(ku::Json::parse("[]"), "f").kind, kl::FileKind::kFaultPlan);
  EXPECT_EQ(kl::lint_document(ku::Json::parse(R"({"job_name": "x"})"), "f").kind,
            kl::FileKind::kModel);
  EXPECT_EQ(kl::lint_document(ku::Json::parse(R"({"models": []})"), "f").kind,
            kl::FileKind::kModelBank);
  const auto unknown = kl::lint_document(ku::Json::parse("3"), "f");
  EXPECT_EQ(unknown.kind, kl::FileKind::kUnknown);
  EXPECT_FALSE(unknown.ok());
}

TEST(LintDocument, UnknownKeysAreWarningsNotErrors) {
  const auto doc = ku::Json::parse(
      R"({"jobs": [{"workload": "sort", "input": 1048576}], "extra_key": 1})");
  const auto report = kl::lint_document(doc, "f");
  EXPECT_TRUE(report.ok());
  ASSERT_EQ(report.num_warnings(), 1u);
  EXPECT_EQ(report.diagnostics.front().key, "extra_key");
}

TEST(LintDocument, EmptyJobsArrayErrs) {
  const auto report = kl::lint_document(ku::Json::parse(R"({"jobs": []})"), "f");
  ASSERT_EQ(report.num_errors(), 1u);
  EXPECT_EQ(report.diagnostics.front().key, "jobs");
}

TEST(LintReportApi, PrintPutsErrorsFirstAndCountsSeverities) {
  kl::LintReport report;
  report.diagnostics.push_back(
      {kl::Severity::kWarning, "f.json", "a", "suspicious", "maybe"});
  report.diagnostics.push_back({kl::Severity::kError, "f.json", "b", "broken", ""});
  EXPECT_EQ(report.num_errors(), 1u);
  EXPECT_EQ(report.num_warnings(), 1u);
  EXPECT_FALSE(report.ok());
  std::ostringstream os;
  kl::print_report(report, os);
  const std::string text = os.str();
  EXPECT_EQ(text.find("error: f.json: b: broken\n"), 0u);
  EXPECT_NE(text.find("warning: f.json: a: suspicious (maybe)"), std::string::npos);
}

TEST(LintFile, MissingFileIsADiagnostic) {
  const auto report = kl::lint_file(fixture("does_not_exist.json"));
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.kind, kl::FileKind::kUnknown);
}

// ---------------------------------------------------------------------------
// Golden corpus: keddah-lint's exact output over every fixture, every shipped
// example, single-field mutations of two examples, and single-field
// mutations of a trained model. A diagnostic that changes wording, key,
// severity, or order shows up as a text diff against
// tests/golden/lint_diagnostics.txt.

namespace {

/// Applies `edit` to element `index` of the array at `key`.
void edit_element(ku::Json& doc, const std::string& key, std::size_t index,
                  const std::function<void(ku::Json&)>& edit) {
  auto array = doc.at(key).as_array();
  edit(array[index]);
  doc[key] = ku::Json(std::move(array));
}

struct Mutation {
  std::string base;  // example scenario file name
  std::string label;
  std::function<void(ku::Json&)> edit;
};

ku::Json object_of(const char* text) { return ku::Json::parse(text); }

const std::vector<Mutation>& mutations() {
  static const std::vector<Mutation> kMutations = {
      {"clean.json", "seed string", [](ku::Json& d) { d["seed"] = ku::Json("7"); }},
      {"clean.json", "seed negative", [](ku::Json& d) { d["seed"] = ku::Json(-1); }},
      {"clean.json", "threads negative", [](ku::Json& d) { d["threads"] = ku::Json(-1); }},
      {"clean.json", "api v9", [](ku::Json& d) { d["api"] = ku::Json("v9"); }},
      {"clean.json", "api v1", [](ku::Json& d) { d["api"] = ku::Json("v1"); }},
      {"clean.json", "unknown top-level key", [](ku::Json& d) { d["sed"] = ku::Json(7); }},
      {"clean.json", "unknown keys at two levels",
       [](ku::Json& d) {
         d["zzz"] = ku::Json(1);
         d["cluster"]["aaa"] = ku::Json(1);
       }},
      {"clean.json", "horizon before a submission",
       [](ku::Json& d) { d["horizon"] = ku::Json(3.0); }},
      {"clean.json", "cluster not an object", [](ku::Json& d) { d["cluster"] = ku::Json(4); }},
      {"clean.json", "cluster.topology unknown",
       [](ku::Json& d) { d["cluster"]["topology"] = ku::Json("ring"); }},
      {"clean.json", "cluster.topology number",
       [](ku::Json& d) { d["cluster"]["topology"] = ku::Json(5); }},
      {"clean.json", "cluster.racks string",
       [](ku::Json& d) { d["cluster"]["racks"] = ku::Json("two"); }},
      {"clean.json", "cluster.racks zero",
       [](ku::Json& d) { d["cluster"]["racks"] = ku::Json(0); }},
      {"clean.json", "cluster.hosts_per_rack negative",
       [](ku::Json& d) { d["cluster"]["hosts_per_rack"] = ku::Json(-4); }},
      {"clean.json", "cluster.fat_tree_k odd on a fat-tree",
       [](ku::Json& d) {
         d["cluster"]["topology"] = ku::Json("fattree");
         d["cluster"]["fat_tree_k"] = ku::Json(3);
       }},
      {"clean.json", "cluster.access_gbps zero",
       [](ku::Json& d) { d["cluster"]["access_gbps"] = ku::Json(0); }},
      {"clean.json", "cluster.core_gbps null",
       [](ku::Json& d) { d["cluster"]["core_gbps"] = ku::Json(nullptr); }},
      {"clean.json", "cluster.block_size negative",
       [](ku::Json& d) { d["cluster"]["block_size"] = ku::Json(-5); }},
      {"clean.json", "cluster.block_size zero",
       [](ku::Json& d) { d["cluster"]["block_size"] = ku::Json(0); }},
      {"clean.json", "cluster.block_size unparseable",
       [](ku::Json& d) { d["cluster"]["block_size"] = ku::Json("lots"); }},
      {"clean.json", "cluster.replication zero",
       [](ku::Json& d) { d["cluster"]["replication"] = ku::Json(0); }},
      {"clean.json", "cluster.replication above the cluster size",
       [](ku::Json& d) { d["cluster"]["replication"] = ku::Json(9); }},
      {"clean.json", "cluster.containers zero",
       [](ku::Json& d) { d["cluster"]["containers"] = ku::Json(0); }},
      {"clean.json", "cluster.slowstart out of range",
       [](ku::Json& d) { d["cluster"]["slowstart"] = ku::Json(2.0); }},
      {"clean.json", "cluster.slowstart string",
       [](ku::Json& d) { d["cluster"]["slowstart"] = ku::Json("half"); }},
      {"clean.json", "cluster.locality_delay_s negative",
       [](ku::Json& d) { d["cluster"]["locality_delay_s"] = ku::Json(-1.0); }},
      {"clean.json", "cluster.compress_ratio zero",
       [](ku::Json& d) { d["cluster"]["compress_ratio"] = ku::Json(0.0); }},
      {"clean.json", "cluster.straggler_fraction out of range",
       [](ku::Json& d) { d["cluster"]["straggler_fraction"] = ku::Json(3.0); }},
      {"clean.json", "cluster.speculative string",
       [](ku::Json& d) { d["cluster"]["speculative"] = ku::Json("yes"); }},
      {"clean.json", "cluster unknown key",
       [](ku::Json& d) { d["cluster"]["replicaton"] = ku::Json(2); }},
      {"clean.json", "jobs empty", [](ku::Json& d) { d["jobs"] = ku::Json::array(); }},
      {"clean.json", "jobs not an array", [](ku::Json& d) { d["jobs"] = ku::Json("sort"); }},
      {"clean.json", "jobs[0] not an object",
       [](ku::Json& d) { edit_element(d, "jobs", 0, [](ku::Json& j) { j = ku::Json(3); }); }},
      {"clean.json", "jobs[0].workload number",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["workload"] = ku::Json(7); });
       }},
      {"clean.json", "jobs[0].input negative",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["input"] = ku::Json(-5); });
       }},
      {"clean.json", "jobs[0].input zero",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["input"] = ku::Json(0); });
       }},
      {"clean.json", "jobs[0].input unparseable",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["input"] = ku::Json("big"); });
       }},
      {"clean.json", "jobs[0].input missing",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) {
           ku::Json::Object fields = j.as_object();
           fields.erase("input");
           j = ku::Json(std::move(fields));
         });
       }},
      {"clean.json", "jobs[0].reducers negative",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["reducers"] = ku::Json(-2); });
       }},
      {"clean.json", "jobs[0].reducers string",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["reducers"] = ku::Json("4"); });
       }},
      {"clean.json", "jobs[1].submit_at negative",
       [](ku::Json& d) {
         edit_element(d, "jobs", 1, [](ku::Json& j) { j["submit_at"] = ku::Json(-1.0); });
       }},
      {"clean.json", "jobs[0].iterations zero",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["iterations"] = ku::Json(0); });
       }},
      {"clean.json", "jobs[0] unknown key",
       [](ku::Json& d) {
         edit_element(d, "jobs", 0, [](ku::Json& j) { j["inptu"] = ku::Json("1GB"); });
       }},
      {"clean.json", "failures[] master crash",
       [](ku::Json& d) { d["failures"] = object_of(R"([{"worker": 0, "at": 1.0}])"); }},
      {"clean.json", "failures[] valid crash",
       [](ku::Json& d) { d["failures"] = object_of(R"([{"worker": 3, "at": 1.0}])"); }},
      {"clean.json", "failures[] unknown worker",
       [](ku::Json& d) { d["failures"] = object_of(R"([{"worker": 99, "at": 1.0}])"); }},
      {"clean.json", "failures[] negative time",
       [](ku::Json& d) { d["failures"] = object_of(R"([{"worker": 2, "at": -1.0}])"); }},
      {"clean.json", "failures not an array",
       [](ku::Json& d) { d["failures"] = ku::Json("x"); }},
      {"outage.json", "faults[0].kind number",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["kind"] = ku::Json(3); });
       }},
      {"outage.json", "faults[0].kind unknown",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["kind"] = ku::Json("meteor"); });
       }},
      {"outage.json", "faults[0].worker negative",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["worker"] = ku::Json(-1); });
       }},
      {"outage.json", "faults[0].worker fractional",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["worker"] = ku::Json(1.5); });
       }},
      {"outage.json", "faults[0].worker string",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["worker"] = ku::Json("5"); });
       }},
      {"outage.json", "faults[0].worker out of range",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["worker"] = ku::Json(8); });
       }},
      {"outage.json", "faults[0].worker master",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["worker"] = ku::Json(0); });
       }},
      {"outage.json", "faults[0].worker missing",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) {
           ku::Json::Object fields = f.as_object();
           fields.erase("worker");
           f = ku::Json(std::move(fields));
         });
       }},
      {"outage.json", "faults[0].at negative",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["at"] = ku::Json(-2.0); });
       }},
      {"outage.json", "faults[0].at string",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["at"] = ku::Json("soon"); });
       }},
      {"outage.json", "faults[0].duration zero",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["duration"] = ku::Json(0.0); });
       }},
      {"outage.json", "faults[0].duration negative",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["duration"] = ku::Json(-3.0); });
       }},
      {"outage.json", "faults[0].factor ignored by an outage",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["factor"] = ku::Json(2.0); });
       }},
      {"outage.json", "faults[0] unknown key",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["severity"] = ku::Json(1); });
       }},
      {"outage.json", "faults[0] not an object",
       [](ku::Json& d) { edit_element(d, "faults", 0, [](ku::Json& f) { f = ku::Json(5); }); }},
      {"outage.json", "faults not an array", [](ku::Json& d) { d["faults"] = ku::Json::object(); }},
      {"outage.json", "faults duplicated entry",
       [](ku::Json& d) {
         auto faults = d.at("faults").as_array();
         faults.push_back(faults.front());
         d["faults"] = ku::Json(std::move(faults));
       }},
      {"outage.json", "faults crash before the outage",
       [](ku::Json& d) {
         auto faults = d.at("faults").as_array();
         faults.insert(faults.begin(), object_of(R"({"kind": "crash", "worker": 5, "at": 1.0})"));
         d["faults"] = ku::Json(std::move(faults));
       }},
      {"outage.json", "faults[0] crash with a duration",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["kind"] = ku::Json("crash"); });
       }},
      {"outage.json", "faults[0] degrade_link without a factor",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) { f["kind"] = ku::Json("degrade_link"); });
       }},
      {"outage.json", "faults[0] slow_node factor below 1",
       [](ku::Json& d) {
         edit_element(d, "faults", 0, [](ku::Json& f) {
           f["kind"] = ku::Json("slow_node");
           f["factor"] = ku::Json(0.5);
         });
       }},
      {"outage.json", "horizon cuts the fault window",
       [](ku::Json& d) { d["horizon"] = ku::Json(10.0); }},
      {"outage.json", "horizon zero", [](ku::Json& d) { d["horizon"] = ku::Json(0.0); }},
      {"outage.json", "cluster shrunk below the faulted worker",
       [](ku::Json& d) { d["cluster"]["racks"] = ku::Json(1); }},
      {"outage.json", "failures[] crash next to faults",
       [](ku::Json& d) { d["failures"] = object_of(R"([{"worker": 5, "at": 1.0}])"); }},
  };
  return kMutations;
}

/// A trained model's to_json(): one small sort run captured on a 2x4
/// cluster and fitted by the toolchain.
const ku::Json& trained_model() {
  static const ku::Json kModel = [] {
    keddah::hadoop::ClusterConfig cfg;
    cfg.racks = 2;
    cfg.hosts_per_rack = 4;
    cfg.block_size = 64ull << 20;
    keddah::core::CaptureSpec capture;
    capture.workload = keddah::workloads::Workload::kSort;
    capture.input_sizes = {256ull << 20};
    capture.seed = 23;
    capture.threads = 1;
    return keddah::core::train("sort", keddah::core::capture_runs(cfg, capture), cfg).to_json();
  }();
  return kModel;
}

/// Removes `key` from the object `doc`.
void erase_key(ku::Json& doc, const std::string& key) {
  ku::Json::Object fields = doc.as_object();
  fields.erase(key);
  doc = ku::Json(std::move(fields));
}

/// A mutation of the trained model, read as a model or wrapped into a bank
/// (kModelBank) — the document kind is given, not sniffed, so a bank handed
/// over as a model is checked as a model, as `keddah generate --model` does.
struct ModelMutation {
  kl::FileKind kind;
  std::string label;
  std::function<void(ku::Json&)> edit;
};

ku::Json& shuffle(ku::Json& d) { return d["classes"]["shuffle"]; }

ku::Json bank_of(ku::Json::Array models) {
  ku::Json bank = ku::Json::object();
  bank["models"] = ku::Json(std::move(models));
  return bank;
}

const std::vector<ModelMutation>& model_mutations() {
  using K = kl::FileKind;
  static const std::vector<ModelMutation> kMutations = {
      {K::kModel, "as trained", [](ku::Json&) {}},
      {K::kModel, "not an object", [](ku::Json& d) { d = ku::Json(3); }},
      {K::kModel, "bank passed as a model", [](ku::Json& d) { d = bank_of({d}); }},
      {K::kModel, "job_name missing", [](ku::Json& d) { erase_key(d, "job_name"); }},
      {K::kModel, "job_name empty", [](ku::Json& d) { d["job_name"] = ku::Json(""); }},
      {K::kModel, "job_name number", [](ku::Json& d) { d["job_name"] = ku::Json(7); }},
      {K::kModel, "unknown top-level key", [](ku::Json& d) { d["jobname"] = ku::Json("sort"); }},
      {K::kModel, "context.cluster_nodes negative",
       [](ku::Json& d) { d["context"]["cluster_nodes"] = ku::Json(-1); }},
      {K::kModel, "context.cluster_nodes string",
       [](ku::Json& d) { d["context"]["cluster_nodes"] = ku::Json("8"); }},
      {K::kModel, "context.replication above the cluster size",
       [](ku::Json& d) { d["context"]["replication"] = ku::Json(99); }},
      {K::kModel, "context.replication 1e30",
       [](ku::Json& d) { d["context"]["replication"] = ku::Json(1e30); }},
      {K::kModel, "context.block_size negative",
       [](ku::Json& d) { d["context"]["block_size"] = ku::Json(-5); }},
      {K::kModel, "context.block_size zero (not recorded)",
       [](ku::Json& d) { d["context"]["block_size"] = ku::Json(0); }},
      {K::kModel, "context input range inverted",
       [](ku::Json& d) { d["context"]["min_input_bytes"] = ku::Json(1e15); }},
      {K::kModel, "context unknown key",
       [](ku::Json& d) { d["context"]["blocksize"] = ku::Json(1); }},
      {K::kModel, "context not an object", [](ku::Json& d) { d["context"] = ku::Json(1); }},
      {K::kModel, "duration_vs_input.n 1e30",
       [](ku::Json& d) { d["duration_vs_input"]["n"] = ku::Json(1e30); }},
      {K::kModel, "duration_vs_input.n negative",
       [](ku::Json& d) { d["duration_vs_input"]["n"] = ku::Json(-3); }},
      {K::kModel, "duration_vs_input.slope null",
       [](ku::Json& d) { d["duration_vs_input"]["slope"] = ku::Json(nullptr); }},
      {K::kModel, "duration_vs_input.intercept missing",
       [](ku::Json& d) { erase_key(d["duration_vs_input"], "intercept"); }},
      {K::kModel, "duration_vs_input.r2 above 1",
       [](ku::Json& d) { d["duration_vs_input"]["r2"] = ku::Json(1.5); }},
      {K::kModel, "classes not an object", [](ku::Json& d) { d["classes"] = ku::Json(3); }},
      {K::kModel, "unknown class key",
       [](ku::Json& d) { d["classes"]["shufle"] = shuffle(d); }},
      {K::kModel, "classes.shuffle not an object",
       [](ku::Json& d) { shuffle(d) = ku::Json("lognormal"); }},
      {K::kModel, "classes.shuffle.size missing",
       [](ku::Json& d) { erase_key(shuffle(d), "size"); }},
      {K::kModel, "classes.shuffle.count missing",
       [](ku::Json& d) { erase_key(shuffle(d), "count"); }},
      {K::kModel, "classes.shuffle.temporal missing",
       [](ku::Json& d) { erase_key(shuffle(d), "temporal"); }},
      {K::kModel, "classes.shuffle.training_flows negative",
       [](ku::Json& d) { shuffle(d)["training_flows"] = ku::Json(-1); }},
      {K::kModel, "classes.shuffle.training_bytes negative",
       [](ku::Json& d) { shuffle(d)["training_bytes"] = ku::Json(-1.0); }},
      {K::kModel, "size.kind unknown",
       [](ku::Json& d) { shuffle(d)["size"]["kind"] = ku::Json("histogram"); }},
      {K::kModel, "size.kind empirical without samples",
       [](ku::Json& d) {
         shuffle(d)["size"]["kind"] = ku::Json("empirical");
         shuffle(d)["size"]["empirical"] = ku::Json::array();
       }},
      {K::kModel, "size.kind parametric without a distribution",
       [](ku::Json& d) {
         shuffle(d)["size"]["kind"] = ku::Json("parametric");
         erase_key(shuffle(d)["size"], "parametric");
       }},
      {K::kModel, "size.ks above 1",
       [](ku::Json& d) { shuffle(d)["size"]["ks"] = ku::Json(1.5); }},
      {K::kModel, "size.ks_pvalue negative",
       [](ku::Json& d) { shuffle(d)["size"]["ks_pvalue"] = ku::Json(-0.1); }},
      {K::kModel, "size.empirical non-monotone",
       [](ku::Json& d) { shuffle(d)["size"]["empirical"] = object_of("[5.0, 9.0, 7.0]"); }},
      {K::kModel, "size.empirical null sample",
       [](ku::Json& d) { shuffle(d)["size"]["empirical"] = object_of("[5.0, null, 7.0]"); }},
      {K::kModel, "size.parametric.p2 missing",
       [](ku::Json& d) { erase_key(shuffle(d)["size"]["parametric"], "p2"); }},
      {K::kModel, "size.parametric.p1 null",
       [](ku::Json& d) { shuffle(d)["size"]["parametric"]["p1"] = ku::Json(nullptr); }},
      {K::kModel, "size.parametric.family unknown",
       [](ku::Json& d) { shuffle(d)["size"]["parametric"]["family"] = ku::Json("zipf"); }},
      {K::kModel, "size.parametric exponential rate zero",
       [](ku::Json& d) {
         shuffle(d)["size"]["parametric"] =
             object_of(R"({"family": "exponential", "p1": 0, "p2": 0})");
       }},
      {K::kModel, "size.parametric normal negative spread",
       [](ku::Json& d) {
         shuffle(d)["size"]["parametric"] =
             object_of(R"({"family": "normal", "p1": 5, "p2": -1})");
       }},
      {K::kModel, "size.parametric uniform inverted",
       [](ku::Json& d) {
         shuffle(d)["size"]["parametric"] =
             object_of(R"({"family": "uniform", "p1": 5, "p2": 1})");
       }},
      {K::kModel, "size.parametric gamma zero shape",
       [](ku::Json& d) {
         shuffle(d)["size"]["parametric"] =
             object_of(R"({"family": "gamma", "p1": 0, "p2": 2})");
       }},
      {K::kModel, "temporal.offsets non-monotone",
       [](ku::Json& d) {
         shuffle(d)["temporal"]["offsets"] = object_of("[0.0, 0.75, 0.25, 1.0]");
       }},
      {K::kModel, "temporal.offsets not an array",
       [](ku::Json& d) { shuffle(d)["temporal"]["offsets"] = ku::Json(0.5); }},
      {K::kModel, "temporal.phase_end_frac above 1",
       [](ku::Json& d) { shuffle(d)["temporal"]["phase_end_frac"] = ku::Json(1.5); }},
      {K::kModel, "temporal phase inverted",
       [](ku::Json& d) {
         shuffle(d)["temporal"]["phase_start_frac"] = ku::Json(0.9);
         shuffle(d)["temporal"]["phase_end_frac"] = ku::Json(0.2);
       }},
      {K::kModel, "count.fit missing",
       [](ku::Json& d) { erase_key(shuffle(d)["count"], "fit"); }},
      {K::kModel, "count.regressor number",
       [](ku::Json& d) { shuffle(d)["count"]["regressor"] = ku::Json(2); }},
      {K::kModel, "volume_vs_input not an object",
       [](ku::Json& d) { d["volume_vs_input"] = ku::Json::array(); }},
      {K::kModel, "volume_vs_input.shuffle.slope string",
       [](ku::Json& d) { d["volume_vs_input"]["shuffle"]["slope"] = ku::Json("fast"); }},
      {K::kModel, "volume_vs_input unknown class",
       [](ku::Json& d) { d["volume_vs_input"]["other"] = d["volume_vs_input"]["shuffle"]; }},
      {K::kModelBank, "bank of two models", [](ku::Json& d) { d = bank_of({d, d}); }},
      {K::kModelBank, "bank entry missing count",
       [](ku::Json& d) {
         ku::Json bad = d;
         erase_key(shuffle(bad), "count");
         d = bank_of({d, bad});
       }},
      {K::kModelBank, "bank entry not an object",
       [](ku::Json& d) { d = object_of(R"({"models": [4]})"); }},
      {K::kModelBank, "bank models not an array",
       [](ku::Json& d) { d = object_of(R"({"models": {}})"); }},
  };
  return kMutations;
}

/// Lints a model-corpus document as the kind its mutation names.
kl::LintReport lint_as(kl::FileKind kind, const ku::Json& doc, const std::string& file) {
  kl::LintReport report;
  report.kind = kind;
  if (kind == kl::FileKind::kModel) {
    kl::lint_model(doc, file, report.diagnostics);
  } else {
    kl::lint_model_bank(doc, file, report.diagnostics);
  }
  return report;
}

/// keddah-lint's stdout for one report, as tools/keddah_lint.cpp prints it,
/// plus the exit code the tool would return for it alone.
std::string tool_output(const kl::LintReport& report, const std::string& file) {
  std::ostringstream os;
  kl::print_report(report, os);
  if (report.diagnostics.empty()) {
    os << file << ": ok (" << kl::file_kind_name(report.kind) << ")\n";
  } else {
    os << report.num_errors() << " error(s), " << report.num_warnings() << " warning(s)\n";
  }
  os << "exit " << (report.ok() ? 0 : 1) << "\n";
  return os.str();
}

std::string replace_all(std::string text, const std::string& from, const std::string& to) {
  for (std::size_t at = text.find(from); at != std::string::npos; at = text.find(from, at)) {
    text.replace(at, from.size(), to);
    at += to.size();
  }
  return text;
}

/// The whole golden text: fixtures, examples, then mutations.
std::string golden_corpus_output() {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(KEDDAH_LINT_FIXTURES)) {
    files.push_back(entry.path().string());
  }
  for (const auto& entry : std::filesystem::directory_iterator(KEDDAH_EXAMPLE_SCENARIOS)) {
    files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  std::string text;
  for (const auto& path : files) {
    text += "== " + path + "\n" + tool_output(kl::lint_file(path), path);
  }
  for (const auto& m : mutations()) {
    auto doc = ku::Json::load_file(example_scenario(m.base));
    m.edit(doc);
    const std::string label = m.base + " [" + m.label + "]";
    text += "== " + label + "\n" + tool_output(kl::lint_document(doc, label), label);
  }
  for (const auto& m : model_mutations()) {
    ku::Json doc = trained_model();
    m.edit(doc);
    const std::string label = "trained model [" + m.label + "]";
    text += "== " + label + "\n" + tool_output(lint_as(m.kind, doc, label), label);
  }
  text = replace_all(text, KEDDAH_LINT_FIXTURES, "tests/fixtures/lint");
  return replace_all(text, KEDDAH_EXAMPLE_SCENARIOS, "examples/scenarios");
}

}  // namespace

TEST(LintGolden, OutputMatchesCommittedText) {
  const std::string golden_path = std::string(KEDDAH_GOLDEN_DIR) + "/lint_diagnostics.txt";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing " << golden_path;
  std::stringstream golden;
  golden << in.rdbuf();
  const std::string actual = golden_corpus_output();
  if (actual != golden.str()) {
    const std::string dump = ::testing::TempDir() + "/lint_diagnostics.actual.txt";
    std::ofstream(dump) << actual;
    FAIL() << "keddah-lint output differs from " << golden_path << "; actual text written to "
           << dump;
  }
}

// ---------------------------------------------------------------------------
// Lint and the runtime loaders agree: over every fixture, example and
// corpus mutation (scenario, fault plan, model and bank), lint reports an
// error exactly when the throwing loader throws, and the loader's exception
// is lint's first error.

namespace {

/// Throws what the runtime parser for `kind` throws on `doc`, if anything.
void run_parser(kl::FileKind kind, const ku::Json& doc, const std::string& file) {
  switch (kind) {
    case kl::FileKind::kScenario:
      (void)keddah::core::parse_scenario(doc, file);
      (void)keddah::api::parse_whatif_request(doc, file);
      break;
    case kl::FileKind::kFaultPlan:
      (void)keddah::hadoop::parse_fault_plan(doc, file, 0);
      break;
    case kl::FileKind::kModel:
      (void)keddah::model::KeddahModel::from_json(doc, file);
      break;
    case kl::FileKind::kModelBank:
      (void)keddah::model::ModelBank::from_json(doc, file);
      break;
    case kl::FileKind::kUnknown:
      break;
  }
}

void expect_agreement(const kl::LintReport& report, const ku::Json& doc,
                      const std::string& file) {
  if (report.kind == kl::FileKind::kUnknown) return;
  const auto first_error =
      std::find_if(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const kl::Diagnostic& d) { return d.severity == kl::Severity::kError; });
  try {
    run_parser(report.kind, doc, file);
    EXPECT_TRUE(report.ok()) << file << ": lint rejects what the parser accepts: "
                             << first_error->to_string();
  } catch (const ku::SpecError& e) {
    ASSERT_FALSE(report.ok()) << file << ": the parser rejects what lint accepts: " << e.what();
    EXPECT_EQ(e.key(), first_error->key) << file;
    EXPECT_EQ(std::string(e.what()), first_error->to_string()) << file;
  }
}

void expect_agreement(const ku::Json& doc, const std::string& file) {
  expect_agreement(kl::lint_document(doc, file), doc, file);
}

}  // namespace

TEST(LintParseAgreement, FixturesAndExamples) {
  for (const char* dir : {KEDDAH_LINT_FIXTURES, KEDDAH_EXAMPLE_SCENARIOS}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string path = entry.path().string();
      ku::Json doc;
      try {
        doc = ku::Json::load_file(path);
      } catch (const std::runtime_error&) {
        // A syntax error: lint reports it at "$", the loaders throw it.
        EXPECT_FALSE(kl::lint_file(path).ok()) << path;
        continue;
      }
      expect_agreement(doc, path);
    }
  }
}

TEST(LintParseAgreement, CorpusMutations) {
  for (const auto& m : mutations()) {
    auto doc = ku::Json::load_file(example_scenario(m.base));
    m.edit(doc);
    expect_agreement(doc, m.base + " [" + m.label + "]");
  }
}

TEST(LintParseAgreement, ModelMutations) {
  for (const auto& m : model_mutations()) {
    ku::Json doc = trained_model();
    m.edit(doc);
    const std::string label = "trained model [" + m.label + "]";
    expect_agreement(lint_as(m.kind, doc, label), doc, label);
  }
}

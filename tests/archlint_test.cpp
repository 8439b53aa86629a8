// Tests for keddah-archlint: every seeded-violation fixture directory under
// tests/fixtures/archlint must produce exactly the rule set its `// expect:`
// headers declare (`// expect: clean` means no findings), the allow fixtures
// must record their suppressions, and the real sources under src/ must have
// zero unsuppressed findings against the committed layer table in strict
// mode. Fixture/source locations come from compile definitions set by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "lint/archlint.h"
#include "lint/detlint.h"
#include "util/json_reader.h"

namespace kl = keddah::lint;
namespace fs = std::filesystem;

namespace {

std::string fixture(const std::string& name) {
  return std::string(KEDDAH_ARCHLINT_FIXTURES) + "/" + name;
}

/// Reads every `// expect: <rule>` line from every source file in the
/// fixture directory. `clean` declares an empty rule set and must be the
/// only declaration when present.
std::set<std::string> expected_rules(const std::string& dir) {
  std::set<std::string> rules;
  bool clean = false;
  const std::string prefix = "// expect: ";
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(prefix, 0) != 0) continue;
      const std::string rule = line.substr(prefix.size());
      if (rule == "clean") {
        clean = true;
      } else {
        rules.insert(rule);
      }
    }
  }
  EXPECT_FALSE(clean && !rules.empty()) << dir << ": 'clean' mixed with rules";
  return rules;
}

std::set<std::string> reported_rules(const kl::ArchlintReport& report) {
  std::set<std::string> rules;
  for (const auto& d : report.diagnostics) rules.insert(d.rule);
  return rules;
}

// The core replay contract: each fixture directory reproduces exactly the
// rule set it declares, no more and no less.
TEST(ArchlintFixtures, EveryFixtureReproducesItsDeclaredRules) {
  std::vector<std::string> dirs;
  for (const auto& entry : fs::directory_iterator(KEDDAH_ARCHLINT_FIXTURES)) {
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  }
  std::sort(dirs.begin(), dirs.end());
  ASSERT_GE(dirs.size(), 10u) << "the fixture corpus shrank below the documented floor";
  for (const auto& dir : dirs) {
    const kl::ArchlintReport report = kl::archlint_paths({dir});
    EXPECT_EQ(reported_rules(report), expected_rules(dir)) << dir;
    for (const auto& d : report.diagnostics) {
      EXPECT_GT(d.line, 0u) << d.to_string();
      EXPECT_NE(d.file.find(KEDDAH_ARCHLINT_FIXTURES), std::string::npos) << d.to_string();
    }
  }
}

TEST(ArchlintFixtures, ExpectHeadersNameKnownRules) {
  const auto& known = kl::archlint_rule_ids();
  for (const auto& entry : fs::directory_iterator(KEDDAH_ARCHLINT_FIXTURES)) {
    if (!entry.is_directory()) continue;
    for (const auto& rule : expected_rules(entry.path().string())) {
      EXPECT_TRUE(std::find(known.begin(), known.end(), rule) != known.end())
          << entry.path() << " declares unknown rule " << rule;
    }
  }
}

TEST(ArchlintFixtures, JustifiedAllowSuppressesAndIsCounted) {
  const kl::ArchlintReport report = kl::archlint_paths({fixture("allow_justified")});
  EXPECT_TRUE(report.ok())
      << (report.diagnostics.empty() ? "" : report.diagnostics[0].to_string());
  EXPECT_EQ(report.suppressions_used, 1u);
  // The suppressed hazard stays visible in the inventory with its reason.
  ASSERT_EQ(report.hot_regions.size(), 1u);
  ASSERT_EQ(report.hot_regions[0].hazards.size(), 1u);
  EXPECT_TRUE(report.hot_regions[0].hazards[0].allowed);
  EXPECT_FALSE(report.hot_regions[0].hazards[0].justification.empty());
}

TEST(ArchlintFixtures, UnjustifiedAllowIsItselfAFinding) {
  const kl::ArchlintReport report = kl::archlint_paths({fixture("allow_unjustified")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "allow-unjustified");
  EXPECT_EQ(report.suppressions_used, 1u);
}

TEST(ArchlintFixtures, FaninBudgetComesFromLayersJson) {
  // The fixture's layers.json sets max_fanin=1; the hub header has two
  // transitive includers.
  const kl::ArchlintReport report = kl::archlint_paths({fixture("fanin_budget")});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].rule, "fanin-budget");
  const auto it = report.header_fanin.find(fixture("fanin_budget") + "/base/hub.h");
  ASSERT_NE(it, report.header_fanin.end());
  EXPECT_EQ(it->second, 2u);
}

TEST(ArchlintLayers, TableIsReadThroughTheCheckedReader) {
  namespace ku = keddah::util;
  {
    ku::Diagnostics diagnostics("layers.json");
    const kl::LayerSpec spec = kl::layer_spec_from_json(
        ku::Json::parse(R"({"layers": [["util"], ["sim", "stats"]], "max_fanin": 12,
                            "strict_modules": true, "fanin": 3})"),
        diagnostics);
    EXPECT_FALSE(diagnostics.has_errors());
    EXPECT_EQ(spec.layers, (std::vector<std::vector<std::string>>{{"util"}, {"sim", "stats"}}));
    EXPECT_EQ(spec.max_fanin, 12u);
    EXPECT_TRUE(spec.strict_modules);
    ASSERT_EQ(diagnostics.all().size(), 1u);  // the misspelt key warns
    EXPECT_EQ(diagnostics.all()[0].key, "fanin");
    EXPECT_EQ(diagnostics.all()[0].severity, ku::Severity::kWarning);
  }
  // A negative budget was an undefined double -> size_t cast.
  for (const char* text : {R"({"layers": [["util"]], "max_fanin": -1})",
                           R"({"layers": [["util"]], "max_fanin": "80"})"}) {
    ku::Diagnostics diagnostics("layers.json");
    (void)kl::layer_spec_from_json(ku::Json::parse(text), diagnostics);
    ASSERT_TRUE(diagnostics.has_errors()) << text;
    EXPECT_EQ(diagnostics.all()[0].key, "max_fanin") << text;
  }
  ku::Diagnostics diagnostics("layers.json");
  (void)kl::layer_spec_from_json(ku::Json::parse(R"({"layers": [["util", 3], "sim"]})"),
                                 diagnostics);
  ASSERT_EQ(diagnostics.num_errors(), 2u);
  EXPECT_EQ(diagnostics.all()[0].key, "layers[0]");
  EXPECT_EQ(diagnostics.all()[1].key, "layers[1]");
}

TEST(ArchlintLayers, LoadedTableThrowsItsFirstErrorNamingTheFile) {
  const std::string path = ::testing::TempDir() + "/archlint_bad_layers.json";
  std::ofstream(path) << R"({"layers": [["util"]], "max_fanin": -1})";
  try {
    (void)kl::load_layer_spec(path);
    FAIL() << "a negative max_fanin loaded";
  } catch (const keddah::util::SpecError& e) {
    EXPECT_EQ(e.file(), path);
    EXPECT_EQ(e.key(), "max_fanin");
  }
  std::filesystem::remove(path);
}

TEST(ArchlintRules, RuleIdsAreSortedAndStable) {
  const auto& rules = kl::archlint_rule_ids();
  const std::vector<std::string> expected = {
      "allow-unjustified", "cpp-include",        "fanin-budget",   "hot-local-container",
      "hot-marker",        "hot-node-container", "hot-push-back",  "hot-shared-ptr",
      "hot-std-function",  "hot-string-concat",  "layer-cycle",    "layer-unknown",
      "layer-upward"};
  EXPECT_EQ(rules, expected);
}

TEST(ArchlintReport, DiagnosticFormatMatchesLintStyle) {
  const kl::ArchlintReport report = kl::archlint_sources(
      {{"mod/demo.h", "#include \"mod/impl.cpp\"\n"}}, kl::default_layer_spec());
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const std::string s = report.diagnostics[0].to_string();
  EXPECT_NE(s.find("mod/demo.h: line 1: [cpp-include]"), std::string::npos) << s;
}

TEST(ArchlintReport, JsonInventoryCarriesModulesAndHotState) {
  const kl::ArchlintReport report = kl::archlint_paths({fixture("allow_justified")});
  const keddah::util::Json doc = report.to_json();
  EXPECT_TRUE(doc.contains("findings"));
  EXPECT_TRUE(doc.contains("modules"));
  EXPECT_TRUE(doc.contains("hot_regions"));
  EXPECT_TRUE(doc.contains("pointer_heavy"));
  // The dump must be valid JSON end to end.
  EXPECT_NO_THROW(keddah::util::Json::parse(doc.dump(2)));
}

// The contract the CI gate enforces: the shipped sources carry zero
// unsuppressed findings against the committed layer table, every module is
// in the table (strict), and every allow is justified.
TEST(ArchlintSources, RepoSourcesScanCleanInStrictMode) {
  kl::LayerSpec spec = kl::default_layer_spec();
  spec.strict_modules = true;
  const kl::ArchlintReport report = kl::archlint_paths({KEDDAH_SRC_DIR}, &spec);
  for (const auto& d : report.diagnostics) ADD_FAILURE() << d.to_string();
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.files_scanned, 50u);
  // The seeded hot regions in net/sim/serve must be registered.
  EXPECT_GE(report.hot_regions.size(), 5u);
  // And the columnar-arena inventory must have something to say.
  EXPECT_FALSE(report.pointer_heavy.empty());
}

// Overlapping arguments name some files twice. Each file must be scanned
// once, so the report equals the plain scan of the outer directory.
TEST(ArchlintSources, OverlappingPathsScanEachFileOnce) {
  const std::string src = KEDDAH_SRC_DIR;
  const std::string net = src + "/net";
  EXPECT_EQ(kl::archlint_paths({src, net}).to_json().dump(),
            kl::archlint_paths({src}).to_json().dump());

  const kl::DetlintReport outer = kl::detlint_paths({src});
  const kl::DetlintReport overlapped = kl::detlint_paths({src, net});
  EXPECT_EQ(overlapped.files_scanned, outer.files_scanned);
  ASSERT_EQ(overlapped.diagnostics.size(), outer.diagnostics.size());
  for (std::size_t i = 0; i < outer.diagnostics.size(); ++i) {
    EXPECT_EQ(overlapped.diagnostics[i].to_string(), outer.diagnostics[i].to_string());
  }
}

}  // namespace

// Tests for keddah-detlint: every seeded-hazard fixture under
// tests/fixtures/detlint must produce exactly the finding its `// expect:`
// header names, the allow-comment fixture must scan clean with one recorded
// suppression, and the real sources under src/ must have zero unsuppressed
// findings. The LintSource cases pin the shared source front end
// (lint/source.h) that detlint and archlint both scan through.
// Fixture/source locations come from compile definitions set by
// tests/CMakeLists.txt.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "lint/detlint.h"
#include "lint/source.h"

namespace kl = keddah::lint;

namespace {

std::string fixture(const std::string& name) {
  return std::string(KEDDAH_DETLINT_FIXTURES) + "/" + name;
}

/// Scans one fixture (plus its paired header, for the member fixture) and
/// asserts every finding carries the expected rule, with at least one.
kl::DetlintReport expect_only_rule(const std::vector<std::string>& names,
                                   const std::string& rule) {
  std::vector<std::string> paths;
  paths.reserve(names.size());
  for (const auto& n : names) paths.push_back(fixture(n));
  const kl::DetlintReport report = kl::detlint_paths(paths);
  EXPECT_FALSE(report.ok()) << names.front() << " should trigger " << rule;
  for (const auto& d : report.diagnostics) {
    EXPECT_EQ(d.rule, rule) << d.to_string();
    EXPECT_GT(d.line, 0u);
    EXPECT_NE(d.file.find(KEDDAH_DETLINT_FIXTURES), std::string::npos);
  }
  return report;
}

TEST(DetlintFixtures, MemberIterationAcrossHeaderPair) {
  const auto report =
      expect_only_rule({"unordered_member_iter.h", "unordered_member_iter.cpp"},
                       "unordered-iter");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  // The declaration lives in the header; the hazard is the .cpp iteration.
  EXPECT_NE(report.diagnostics[0].file.find(".cpp"), std::string::npos);
  EXPECT_NE(report.diagnostics[0].message.find("entries"), std::string::npos);
}

TEST(DetlintFixtures, LocalIteration) {
  const auto report = expect_only_rule({"unordered_local_iter.cpp"}, "unordered-iter");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, ReturnValueIteration) {
  const auto report = expect_only_rule({"unordered_return_iter.cpp"}, "unordered-iter");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, ExplicitBeginIteration) {
  expect_only_rule({"unordered_begin_iter.cpp"}, "unordered-iter");
}

TEST(DetlintFixtures, PointerKeyedMap) {
  const auto report = expect_only_rule({"pointer_key_map.cpp"}, "pointer-key");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, PointerKeyedSet) {
  const auto report = expect_only_rule({"pointer_key_set.cpp"}, "pointer-key");
  EXPECT_EQ(report.diagnostics.size(), 1u);
}

TEST(DetlintFixtures, RandomDevice) {
  expect_only_rule({"random_device_seed.cpp"}, "random-device");
}

TEST(DetlintFixtures, WallClock) {
  expect_only_rule({"wall_clock_now.cpp"}, "wall-clock");
}

TEST(DetlintFixtures, BareMutexMember) {
  // The fixture suppresses its own <mutex> include; only the raw member
  // declaration should remain.
  const auto report = expect_only_rule({"bare_mutex_member.cpp"}, "bare-mutex");
  EXPECT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.suppressions_used, 1u);
}

TEST(DetlintFixtures, AllowCommentSuppresses) {
  const kl::DetlintReport report =
      kl::detlint_paths({fixture("allowed_unordered_iter.cpp")});
  EXPECT_TRUE(report.ok())
      << (report.diagnostics.empty() ? "" : report.diagnostics[0].to_string());
  EXPECT_EQ(report.suppressions_used, 1u);
}

// Every fixture's first line declares the rule it seeds (`// expect: <rule>`
// or `// expect: clean`), so the fixture set stays self-describing and
// tools/check_static.sh can replay the same contract from the shell.
TEST(DetlintFixtures, ExpectHeadersNameKnownRules) {
  const auto& rules = kl::detlint_rule_ids();
  const std::vector<std::string> names = {
      "unordered_member_iter.cpp", "unordered_local_iter.cpp",
      "unordered_return_iter.cpp", "unordered_begin_iter.cpp",
      "pointer_key_map.cpp",       "pointer_key_set.cpp",
      "random_device_seed.cpp",    "wall_clock_now.cpp",
      "bare_mutex_member.cpp",     "allowed_unordered_iter.cpp"};
  for (const auto& name : names) {
    std::ifstream in(fixture(name));
    ASSERT_TRUE(in.good()) << name;
    std::string first_line;
    std::getline(in, first_line);
    const std::string prefix = "// expect: ";
    ASSERT_EQ(first_line.rfind(prefix, 0), 0u) << name;
    const std::string expected = first_line.substr(prefix.size());
    const bool known =
        expected == "clean" ||
        std::find(rules.begin(), rules.end(), expected) != rules.end();
    EXPECT_TRUE(known) << name << " declares unknown rule " << expected;
  }
}

TEST(DetlintRules, RuleIdsAreSortedAndStable) {
  const auto& rules = kl::detlint_rule_ids();
  const std::vector<std::string> expected = {"bare-mutex", "pointer-key",
                                             "random-device", "unordered-iter",
                                             "wall-clock"};
  EXPECT_EQ(rules, expected);
}

TEST(DetlintSources, DiagnosticFormatMatchesLintStyle) {
  const kl::DetlintReport report = kl::detlint_sources(
      {{"demo.cpp", "#include <random>\nstd::random_device rd;\n"}});
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const std::string s = report.diagnostics[0].to_string();
  EXPECT_NE(s.find("demo.cpp: line 2: [random-device]"), std::string::npos) << s;
}

// The cleaner keeps a string literal's quotes, so a call whose only
// argument is a literal must still read as a call to the registered
// unordered-returning function.
TEST(DetlintSources, RangeForOverCallWithLiteralArgument) {
  const kl::DetlintReport report = kl::detlint_sources({{"demo.cpp",
      "std::unordered_map<int, int> lookup(const char* key);\n"
      "int sum() {\n"
      "  int t = 0;\n"
      "  for (const auto& [a, b] : lookup(\"key\")) t += b;\n"
      "  for (const auto& [a, b] : lookup()) t += b;\n"
      "  return t;\n"
      "}\n"}});
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].line, 4u);
  EXPECT_EQ(report.diagnostics[1].line, 5u);
  EXPECT_EQ(report.diagnostics[0].rule, "unordered-iter");
}

// A call whose arguments are identifiers, nested calls or member reads is
// bracket-matched back to its name, so it is still a call to the registered
// unordered-returning function. A bare parenthesized range is not a call.
TEST(DetlintSources, RangeForOverCallWithArguments) {
  const kl::DetlintReport report = kl::detlint_sources({{"demo.cpp",
      "std::unordered_map<int, int> lookup(int key);\n"
      "int sum(int key, const S& s) {\n"
      "  int t = 0;\n"
      "  for (const auto& [k, v] : lookup(key)) t += v;\n"
      "  for (const auto& [k, v] : lookup( s.id(key) )) t += v;\n"
      "  for (const auto& [k, v] : ordered(key)) t += v;\n"
      "  for (const auto& v : (key)) t += v;\n"
      "  return t;\n"
      "}\n"}});
  ASSERT_EQ(report.diagnostics.size(), 2u);
  EXPECT_EQ(report.diagnostics[0].line, 4u);
  EXPECT_EQ(report.diagnostics[1].line, 5u);
  EXPECT_EQ(report.diagnostics[0].rule, "unordered-iter");
}

// The contract the CI gate enforces: the shipped sources carry zero
// unsuppressed determinism hazards.
TEST(DetlintSources, RepoSourcesScanClean) {
  const kl::DetlintReport report = kl::detlint_paths({KEDDAH_SRC_DIR});
  for (const auto& d : report.diagnostics) ADD_FAILURE() << d.to_string();
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.files_scanned, 50u);
}

// ---------------------------------------------------------------------------
// The shared source front end.
// ---------------------------------------------------------------------------

kl::CleanSource clean(const std::string& text) {
  return kl::clean_source(kl::SourceFile{"demo.cpp", text});
}

using Comments = std::vector<std::pair<std::size_t, std::string>>;

TEST(LintSource, RawStringWithDelimiterKeepsOnlyItsQuotes) {
  // The body holds a '"' and a ')' that do not close the literal.
  const std::string body = "xy(a \"quoted\" ) paren)xy";
  const kl::CleanSource src = clean("auto s = R\"" + body + "\"; int after;\n");
  EXPECT_EQ(src.clean, "auto s =  \"" + std::string(body.size(), ' ') + "\"; int after;\n");
  EXPECT_TRUE(src.comments.empty());
}

TEST(LintSource, DigitSeparatorIsNotACharLiteral) {
  const kl::CleanSource src = clean("int n = 1'000'000; // tail\nint m;\n");
  EXPECT_EQ(src.clean, "int n = 1'000'000;        \nint m;\n");
  EXPECT_EQ(src.comments, (Comments{{1, " tail"}}));
}

TEST(LintSource, EscapedQuotesAndBackslashesStayInsideLiterals) {
  const kl::CleanSource src = clean(R"(a = "x\"y\\"; b = '\''; c = '\\'; d; // c)");
  EXPECT_EQ(src.clean, R"(a = "      "; b =     ; c =     ; d;     )");
  EXPECT_EQ(src.comments, (Comments{{1, " c"}}));
}

TEST(LintSource, BlockCommentSpansLines) {
  const kl::CleanSource src = clean("int a; /* one\ntwo */ int b;\n");
  EXPECT_EQ(src.clean, "int a;       \n       int b;\n");
  EXPECT_EQ(src.comments, (Comments{{1, " one\ntwo "}}));
  EXPECT_TRUE(src.comment_only_lines.empty());
}

TEST(LintSource, UnterminatedCommentAtEofStillYieldsItsText) {
  EXPECT_EQ(clean("int a;\n/* dangling").comments, (Comments{{2, " dangling"}}));
  EXPECT_EQ(clean("x; // tail").comments, (Comments{{1, " tail"}}));
}

TEST(LintSource, CommentOnlyLines) {
  const kl::CleanSource src =
      clean("// alone\nint a; // trailing\n  /* block */\n/* a */ int b;\n/* x\n y */\n");
  EXPECT_EQ(src.comment_only_lines, (std::set<std::size_t>{1, 3, 5, 6}));
}

TEST(LintSource, LineOfAtLineStartsAndEnds) {
  const kl::CleanSource src = clean("ab\ncd\n\nef");
  EXPECT_EQ(src.line_starts, (std::vector<std::size_t>{0, 3, 6, 7}));
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {0, 1}, {2, 1}, {3, 2}, {5, 2}, {6, 3}, {7, 4}, {8, 4}};
  for (const auto& [offset, line] : cases) {
    EXPECT_EQ(kl::line_of(src, offset), line) << "offset " << offset;
  }
}

TEST(LintSource, CleaningPreservesSizeAndNewlines) {
  const std::string text =
      "const char* r = R\"d(line one\n)\" still raw\n)d\";\n"
      "/* block\n   comment */ int x = '\\n';\n"
      "auto s = \"continued \\\n string\"; // trailing\n"
      "int y = 1'000;\n";
  const kl::CleanSource src = clean(text);
  ASSERT_EQ(src.clean.size(), text.size());
  std::vector<std::size_t> starts = {0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    EXPECT_EQ(src.clean[i] == '\n', text[i] == '\n') << "offset " << i;
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  EXPECT_EQ(src.line_starts, starts);
  // Everything inside the literals and comments is gone.
  for (const char* gone : {"line", "raw", "block", "comment", "continued", "string", "trailing"}) {
    EXPECT_EQ(src.clean.find(gone), std::string::npos) << gone;
  }
  EXPECT_NE(src.clean.find("int y = 1'000;"), std::string::npos);
}

TEST(LintSource, LoadSourcesThrowsOnMissingPath) {
  EXPECT_THROW(kl::load_sources({std::string(KEDDAH_DETLINT_FIXTURES) + "/no_such_file.cpp"}),
               std::runtime_error);
}

}  // namespace

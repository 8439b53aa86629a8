// Unit tests for src/util: rng determinism and distribution sanity, string
// helpers, CSV round-trips, JSON round-trips, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/csv.h"
#include "util/json.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/table.h"

namespace ku = keddah::util;

TEST(Rng, SameSeedSameSequence) {
  ku::Rng a(42);
  ku::Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  ku::Rng a(1);
  ku::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 4);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  ku::Rng parent(7);
  ku::Rng child1 = parent.split();
  ku::Rng child2 = parent.split();
  EXPECT_NE(child1.next(), child2.next());

  // Splitting is deterministic in (seed, split index).
  ku::Rng parent2(7);
  ku::Rng again1 = parent2.split();
  ku::Rng again2 = parent2.split();
  ku::Rng reference1 = ku::Rng(7).split();
  EXPECT_EQ(again1.next(), reference1.next());
  ku::Rng reference_parent(7);
  (void)reference_parent.split();
  ku::Rng reference2 = reference_parent.split();
  EXPECT_EQ(again2.next(), reference2.next());
}

TEST(Rng, UniformRange) {
  ku::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBoundsInclusive) {
  ku::Rng rng(4);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  ku::Rng rng(5);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  ku::Rng rng(6);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(0.5);
  EXPECT_NEAR(sum / n, 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  ku::Rng rng(7);
  std::vector<double> xs(100001);
  for (auto& x : xs) x = rng.lognormal(3.0, 1.0);
  std::nth_element(xs.begin(), xs.begin() + 50000, xs.end());
  EXPECT_NEAR(xs[50000], std::exp(3.0), 0.5);
}

TEST(Rng, WeibullMean) {
  // k=2, lambda=3 => mean = 3 * Gamma(1.5) ~= 2.6587
  ku::Rng rng(8);
  const int n = 200000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.weibull(2.0, 3.0);
  EXPECT_NEAR(sum / n, 3.0 * std::tgamma(1.5), 0.03);
}

TEST(Rng, GammaMeanAndVariance) {
  ku::Rng rng(9);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(3.0, 2.0);  // mean 6, var 12
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 6.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 12.0, 0.5);
}

TEST(Rng, GammaSmallShape) {
  ku::Rng rng(10);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.gamma(0.5, 1.0);
    EXPECT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ParetoSupport) {
  ku::Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ZipfSkewPrefersLowRanks) {
  ku::Rng rng(12);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(10, 1.2)];
  EXPECT_GT(counts[0], counts[9] * 3);
}

TEST(Rng, ZipfZeroIsUniform) {
  ku::Rng rng(13);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[rng.zipf(4, 0.0)];
  for (const int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  ku::Rng rng(14);
  const auto picks = rng.sample_without_replacement(10, 10);
  std::vector<bool> seen(10, false);
  for (const auto p : picks) {
    EXPECT_LT(p, 10u);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = ku::split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, Trim) {
  EXPECT_EQ(ku::trim("  hi \t"), "hi");
  EXPECT_EQ(ku::trim(""), "");
  EXPECT_EQ(ku::trim("   "), "");
}

TEST(Strings, Format) { EXPECT_EQ(ku::format("%d-%s", 7, "x"), "7-x"); }

TEST(Strings, HumanBytes) {
  EXPECT_EQ(ku::human_bytes(512), "512 B");
  EXPECT_EQ(ku::human_bytes(1536), "1.50 KB");
  EXPECT_EQ(ku::human_bytes(3.0 * 1024 * 1024 * 1024), "3.00 GB");
}

TEST(Strings, ParseBytes) {
  std::uint64_t v = 0;
  EXPECT_TRUE(ku::parse_bytes("128MB", &v));
  EXPECT_EQ(v, 128ull << 20);
  EXPECT_TRUE(ku::parse_bytes("1.5 GB", &v));
  EXPECT_EQ(v, (3ull << 30) / 2);
  EXPECT_TRUE(ku::parse_bytes("4096", &v));
  EXPECT_EQ(v, 4096u);
  EXPECT_FALSE(ku::parse_bytes("oops", &v));
  EXPECT_FALSE(ku::parse_bytes("12XB", &v));
}

TEST(Csv, RoundTrip) {
  ku::CsvTable table({"a", "b"});
  table.add_row({"1", "x"});
  table.add_row({"2", "y"});
  std::ostringstream out;
  table.write(out);
  std::istringstream in(out.str());
  const auto parsed = ku::CsvTable::parse(in);
  ASSERT_EQ(parsed.num_rows(), 2u);
  EXPECT_EQ(parsed.cell(0, "a"), "1");
  EXPECT_EQ(parsed.cell(1, "b"), "y");
  EXPECT_EQ(parsed.cell(1, "a"), "2");
}

TEST(Csv, SkipsCommentsAndBlankLines) {
  std::istringstream in("# comment\n\na,b\n# another\n1,2\n");
  const auto parsed = ku::CsvTable::parse(in);
  ASSERT_EQ(parsed.num_rows(), 1u);
  EXPECT_EQ(parsed.cell(0, "b"), "2");
}

TEST(Csv, RaggedRowThrows) {
  std::istringstream in("a,b\n1\n");
  EXPECT_THROW(ku::CsvTable::parse(in), std::runtime_error);
}

TEST(Csv, RowWidthMismatchThrows) {
  ku::CsvTable table({"a"});
  EXPECT_THROW(table.add_row({"1", "2"}), std::invalid_argument);
}

TEST(Csv, MissingColumnThrows) {
  ku::CsvTable table({"a"});
  table.add_row({"1"});
  EXPECT_THROW(table.column("zz"), std::out_of_range);
  EXPECT_TRUE(table.has_column("a"));
  EXPECT_FALSE(table.has_column("zz"));
}

TEST(Json, ParsePrimitives) {
  EXPECT_TRUE(ku::Json::parse("null").is_null());
  EXPECT_EQ(ku::Json::parse("true").as_bool(), true);
  EXPECT_DOUBLE_EQ(ku::Json::parse("-1.5e2").as_number(), -150.0);
  EXPECT_EQ(ku::Json::parse("\"hi\\n\"").as_string(), "hi\n");
}

TEST(Json, ParseNested) {
  const auto doc = ku::Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  EXPECT_EQ(doc.at("a").size(), 3u);
  EXPECT_EQ(doc.at("a").at(2).at("b").as_string(), "c");
  EXPECT_TRUE(doc.at("d").is_object());
}

TEST(Json, RoundTrip) {
  ku::Json doc = ku::Json::object();
  doc["name"] = ku::Json("sort");
  doc["count"] = ku::Json(42);
  doc["ratio"] = ku::Json(0.25);
  doc["tags"] = ku::Json::array();
  doc["tags"].push_back(ku::Json("a"));
  doc["tags"].push_back(ku::Json(1.5));
  const auto reparsed = ku::Json::parse(doc.dump());
  EXPECT_EQ(reparsed.at("name").as_string(), "sort");
  EXPECT_EQ(reparsed.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(reparsed.at("ratio").as_number(), 0.25);
  EXPECT_EQ(reparsed.at("tags").at(0).as_string(), "a");
}

TEST(Json, CompactDump) {
  ku::Json doc = ku::Json::object();
  doc["a"] = ku::Json(1);
  EXPECT_EQ(doc.dump(-1), "{\"a\":1}");
}

TEST(Json, TypeMismatchThrows) {
  const auto doc = ku::Json::parse("[1]");
  EXPECT_THROW(doc.as_object(), std::runtime_error);
  EXPECT_THROW(doc.at("x"), std::runtime_error);
}

TEST(Json, ParseErrorsMentionOffset) {
  try {
    ku::Json::parse("{\"a\": }");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, TruncatedInputThrowsWithOffset) {
  for (const char* text : {"", "{", "[1, 2", "{\"a\": 1", "\"unterminated", "tru", "-",
                           "{\"a\"", "[1,"}) {
    EXPECT_THROW(ku::Json::parse(text), std::runtime_error) << "input: " << text;
  }
  try {
    ku::Json::parse("[1, 2");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
}

TEST(Json, BadEscapesThrow) {
  EXPECT_THROW(ku::Json::parse(R"("\q")"), std::runtime_error);
  EXPECT_THROW(ku::Json::parse(R"("\u12")"), std::runtime_error);
  EXPECT_THROW(ku::Json::parse("\"\\"), std::runtime_error);
  // The valid short escapes still round-trip.
  EXPECT_EQ(ku::Json::parse(R"("\t\\\"")").as_string(), "\t\\\"");
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  // One code point per UTF-8 length class.
  EXPECT_EQ(ku::Json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(ku::Json::parse(R"("\u00e9")").as_string(), "\xc3\xa9");      // e-acute
  EXPECT_EQ(ku::Json::parse(R"("\u20AC")").as_string(), "\xe2\x82\xac");  // euro sign
  EXPECT_EQ(ku::Json::parse(R"("\ud83d\ude00")").as_string(),
            "\xf0\x9f\x98\x80");  // U+1F600 via surrogate pair
  // Escapes mix freely with literal text, and hex digits are case-insensitive.
  EXPECT_EQ(ku::Json::parse(R"("x\uC3a9y")").as_string(), "x\xec\x8e\xa9y");
  // \u0000 embeds a real NUL.
  const std::string nul = ku::Json::parse(R"("a\u0000b")").as_string();
  ASSERT_EQ(nul.size(), 3u);
  EXPECT_EQ(nul[1], '\0');
}

TEST(Json, UnicodeEscapesRoundTripThroughDump) {
  // The dumper emits decoded UTF-8 bytes verbatim; parsing the dump must
  // reproduce the same value.
  for (const char* text : {R"("\u00e9")", R"("\u20ac")", R"("\ud83d\ude00")",
                           R"({"k\u00fc": [1, "\u2603"]})"}) {
    const ku::Json doc = ku::Json::parse(text);
    EXPECT_EQ(ku::Json::parse(doc.dump(-1)).dump(-1), doc.dump(-1)) << "input: " << text;
  }
}

TEST(Json, MalformedUnicodeEscapesThrowWithOffset) {
  // Lone and mismatched surrogates, truncated escapes, and bad hex digits
  // all fail, and the error names the byte offset.
  for (const char* text : {R"("\ud800")", R"("\ud800x")", R"("\ud800\n")", R"("\ud800\u0041")",
                           R"("\ude00")", R"("\uzzzz")", R"("\ud83d)", R"("\ud83d\u)"}) {
    try {
      ku::Json::parse(text);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos) << e.what();
    }
  }
}

TEST(Json, DuplicateObjectKeysThrowNamingTheKey) {
  try {
    ku::Json::parse(R"({"dup": 1, "other": 2, "dup": 3})");
    FAIL() << "expected duplicate-key error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate"), std::string::npos);
    EXPECT_NE(what.find("dup"), std::string::npos);
  }
  // Duplicates are also caught in nested objects.
  EXPECT_THROW(ku::Json::parse(R"({"a": {"k": 1, "k": 2}})"), std::runtime_error);
  // Same key at different depths is fine.
  EXPECT_NO_THROW(ku::Json::parse(R"({"k": {"k": 1}})"));
}

TEST(Json, TrailingGarbageThrows) {
  EXPECT_THROW(ku::Json::parse("{} x"), std::runtime_error);
  EXPECT_THROW(ku::Json::parse("1 2"), std::runtime_error);
}

TEST(Table, AlignsAndRules) {
  ku::TextTable t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "22.25"});
  const auto text = t.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_NE(text.find("22.25"), std::string::npos);
}

TEST(Table, NumericRowHelper) {
  ku::TextTable t({"label", "a", "b"});
  t.add_numeric_row("row", {1.0, 2.5}, 1);
  EXPECT_NE(t.str().find("2.5"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Log, ParseLevels) {
  EXPECT_EQ(ku::parse_log_level("debug"), ku::LogLevel::kDebug);
  EXPECT_EQ(ku::parse_log_level("ERROR"), ku::LogLevel::kError);
  EXPECT_EQ(ku::parse_log_level("bogus"), ku::LogLevel::kWarn);
}

#include "util/gnuplot.h"

TEST(Gnuplot, DataUsesIndexSeparators) {
  ku::GnuplotFigure fig("t", "x", "y");
  fig.add_series("a");
  fig.add_point(1.0, 2.0);
  fig.add_point(3.0, 4.0);
  fig.add_series("b", {{5.0, 6.0}});
  const auto data = fig.data();
  EXPECT_NE(data.find("# series: a"), std::string::npos);
  EXPECT_NE(data.find("1 2"), std::string::npos);
  EXPECT_NE(data.find("\n\n\n# series: b"), std::string::npos);
}

TEST(Gnuplot, ScriptReferencesSeriesByIndex) {
  ku::GnuplotFigure fig("Title", "X", "Y");
  fig.add_series("first", {{0.0, 1.0}});
  fig.add_series("second", {{0.0, 2.0}});
  fig.set_logscale_x();
  fig.set_style("steps");
  const auto script = fig.script("/tmp/base");
  EXPECT_NE(script.find("set logscale x"), std::string::npos);
  EXPECT_NE(script.find("index 0 with steps title 'first'"), std::string::npos);
  EXPECT_NE(script.find("index 1 with steps title 'second'"), std::string::npos);
  EXPECT_NE(script.find("set output '/tmp/base.png'"), std::string::npos);
}

TEST(Gnuplot, PointBeforeSeriesThrows) {
  ku::GnuplotFigure fig("t", "x", "y");
  EXPECT_THROW(fig.add_point(1.0, 2.0), std::logic_error);
}

TEST(Gnuplot, WritesBothFiles) {
  ku::GnuplotFigure fig("t", "x", "y");
  fig.add_series("s", {{1.0, 1.0}});
  const std::string base = ::testing::TempDir() + "/keddah_gnuplot_test";
  fig.write(base);
  std::ifstream dat(base + ".dat");
  std::ifstream gp(base + ".gp");
  EXPECT_TRUE(dat.good());
  EXPECT_TRUE(gp.good());
  std::remove((base + ".dat").c_str());
  std::remove((base + ".gp").c_str());
}

TEST(Gnuplot, PlotDirFromEnv) {
  ::unsetenv("KEDDAH_PLOT_DIR");
  EXPECT_TRUE(ku::plot_dir_from_env().empty());
  ::setenv("KEDDAH_PLOT_DIR", "/tmp/x", 1);
  EXPECT_EQ(ku::plot_dir_from_env(), "/tmp/x");
  ::unsetenv("KEDDAH_PLOT_DIR");
}

// Golden-trace regression tests: every shipped example scenario is run
// end-to-end and its capture (every flow's endpoints, ports, bytes and
// %.17g-exact timestamps) plus its fault/ledger summary are diffed against a
// checked-in golden file. The incremental scheduler is the component most
// able to silently shift a completion time, so these pin the entire
// observable output of the toolchain, flow by flow. ReplayDenseWhatIf pins
// gen::replay the same way: open-loop replay merges the fabric into one
// dense max-min component, the solver's other regime.
//
// When an intentional behaviour change moves the traces, regenerate with:
//   KEDDAH_REGEN_GOLDEN=1 ctest -R GoldenTrace
// and review the golden diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "util/strings.h"

namespace kc = keddah::core;
namespace ku = keddah::util;

namespace {

/// Serializes a capture as one JSON-lines record per flow. %.17g round-trips
/// doubles exactly, so a golden match is a bit-exact match on every
/// timestamp and byte count.
void render_trace(const keddah::capture::Trace& trace, std::ostringstream& out) {
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& r = trace[i];
    out << ku::format(
        R"({"src":"%s","dst":"%s","sport":%u,"dport":%u,"bytes":%.17g,"start":%.17g,"end":%.17g,"job":%u})",
        trace.name(r.src_id).c_str(), trace.name(r.dst_id).c_str(), static_cast<unsigned>(r.src_port),
        static_cast<unsigned>(r.dst_port), r.bytes, r.start, r.end, r.job_id);
    out << "\n";
  }
}

/// A scenario outcome: its capture plus a trailing fault/ledger summary.
std::string render(const kc::ScenarioOutcome& outcome) {
  std::ostringstream out;
  render_trace(outcome.trace, out);
  const auto& f = outcome.faults;
  out << ku::format(R"({"jobs":%zu,"rereplications":%zu,"aborted_flows":%llu,"aborted_bytes":%.17g})",
                    outcome.results.size(), outcome.rereplications,
                    static_cast<unsigned long long>(f.aborted_flows), f.aborted_bytes.value());
  out << "\n";
  return out.str();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Diffs `got` against tests/golden/<name>.trace.jsonl, or rewrites the
/// golden when KEDDAH_REGEN_GOLDEN is set.
void expect_golden(const std::string& name, const std::string& got) {
  const std::string golden_path = std::string(KEDDAH_GOLDEN_DIR) + "/" + name + ".trace.jsonl";

  if (std::getenv("KEDDAH_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "regenerated " << golden_path;
  }

  const std::string want = read_file(golden_path);
  ASSERT_FALSE(want.empty()) << golden_path
                             << " missing — regenerate with KEDDAH_REGEN_GOLDEN=1";
  if (got == want) return;  // fast path: byte-identical
  // Mismatch: report the first differing line with context, not a 1000-line
  // string diff.
  std::istringstream got_s(got), want_s(want);
  std::string got_line, want_line;
  std::size_t line = 0;
  for (;;) {
    const bool got_more = static_cast<bool>(std::getline(got_s, got_line));
    const bool want_more = static_cast<bool>(std::getline(want_s, want_line));
    ++line;
    if (!got_more && !want_more) break;
    if (!got_more || !want_more || got_line != want_line) {
      FAIL() << name << ".trace.jsonl line " << line << " diverged\n  golden: "
             << (want_more ? want_line : "<eof>") << "\n  actual: "
             << (got_more ? got_line : "<eof>")
             << "\nIf intentional, regenerate with KEDDAH_REGEN_GOLDEN=1 and review the diff.";
    }
  }
}

class GoldenTrace : public ::testing::TestWithParam<const char*> {};

}  // namespace

TEST_P(GoldenTrace, MatchesCheckedInTrace) {
  const std::string name = GetParam();
  const auto spec = kc::load_scenario(std::string(KEDDAH_EXAMPLE_SCENARIOS) + "/" + name + ".json");
  expect_golden(name, render(kc::run_scenario(spec)));
}

INSTANTIATE_TEST_SUITE_P(ExampleScenarios, GoldenTrace,
                         ::testing::Values("clean", "crash", "outage", "degraded_link"),
                         [](const auto& info) { return std::string(info.param); });

// An open-loop what-if above the training range: a sort model trained on the
// default 4x4 testbed at 1-6 GB answers a 4 GB what-if on that fabric
// through core::generate_and_replay.
TEST(GoldenTrace, ReplayDenseWhatIf) {
  constexpr std::uint64_t kGiB = 1ull << 30;
  const keddah::hadoop::ClusterConfig cluster;
  kc::CaptureSpec capture;
  capture.workload = keddah::workloads::Workload::kSort;
  for (std::uint64_t gb = 1; gb <= 6; ++gb) capture.input_sizes.push_back(gb * kGiB);
  capture.repetitions = 2;
  capture.seed = 1;
  capture.threads = 1;
  const auto runs = kc::capture_runs(cluster, capture);
  const auto model = kc::train("sort", runs, cluster);

  kc::ReproduceSpec reproduce;
  reproduce.scenario.input_bytes = static_cast<double>(4 * kGiB);
  reproduce.scenario.num_hosts = cluster.num_workers();
  const auto result = kc::generate_and_replay(model, reproduce, cluster.build_topology());

  std::ostringstream out;
  render_trace(result.replay.trace, out);
  out << ku::format(R"({"flows":%zu,"makespan":%.17g})", result.schedule.flows.size(),
                    result.replay.makespan);
  out << "\n";
  expect_golden("replay_dense_whatif", out.str());
}

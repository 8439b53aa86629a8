// Table 7: flow-to-job attribution accuracy (capture-methodology
// experiment). Keddah labels pcap flows with jobs by correlating them with
// job-history logs; this measures how well timing + task placement recover
// the true owner as the cluster gets busier.
#include <iostream>

#include "bench_common.h"
#include "hadoop/attribution.h"
#include "hadoop/cluster.h"
#include "workloads/suite.h"

namespace {

struct Scenario {
  std::string label;
  std::vector<std::pair<keddah::workloads::Workload, double>> jobs;  // (job, submit time)
};

void run_scenario(const Scenario& scenario, std::uint64_t seed,
                  keddah::util::TextTable& table) {
  using namespace keddah;
  using bench::kGiB;
  hadoop::HadoopCluster cluster(bench::default_config(), seed);
  std::vector<workloads::JobEntry> entries;
  for (const auto& [workload, submit_at] : scenario.jobs) {
    entries.push_back({workload, 4 * kGiB, 8, submit_at});
  }
  workloads::run_jobs(cluster, entries);
  const auto trace = cluster.take_trace();
  const auto result = hadoop::attribute_flows(trace, cluster.history());
  table.add_row({scenario.label, std::to_string(trace.size()),
                 std::to_string(result.job_flows), std::to_string(result.attributed),
                 util::format("%.1f%%", 100.0 * result.precision()),
                 util::format("%.1f%%", 100.0 * result.recall())});
}

}  // namespace

int main() {
  using namespace keddah;
  bench::banner("Table 7", "flow-to-job attribution from history logs (4 GB jobs)");
  util::TextTable table({"scenario", "flows", "job_flows", "attributed", "precision", "recall"});
  run_scenario({"1 job (sort)", {{workloads::Workload::kSort, 0.0}}}, 21000, table);
  run_scenario({"2 jobs, staggered 10s",
                {{workloads::Workload::kSort, 0.0}, {workloads::Workload::kWordCount, 10.0}}},
               21001, table);
  run_scenario({"3 jobs, overlapping",
                {{workloads::Workload::kSort, 0.0},
                 {workloads::Workload::kWordCount, 5.0},
                 {workloads::Workload::kGrep, 10.0}}},
               21002, table);
  run_scenario({"3 jobs, simultaneous",
                {{workloads::Workload::kSort, 0.0},
                 {workloads::Workload::kSort, 0.0},
                 {workloads::Workload::kSort, 0.0}}},
               21003, table);
  table.print(std::cout);
  std::cout << "\nShape check: attribution is near-perfect for isolated jobs and degrades\n"
               "gracefully as windows overlap — identical simultaneous jobs are the\n"
               "worst case (endpoint evidence is all that separates them).\n";
  return 0;
}

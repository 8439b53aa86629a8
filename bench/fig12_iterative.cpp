// Figure 12: iterative workloads (extension experiment).
//
// Expected shape: per-iteration traffic tracks the data volume in flight —
// PageRank (0.84x per iteration) decays geometrically, while an identity
// Sort chain stays flat; later iterations read many small part files, so
// their read-class profile shifts from block-sized to part-sized flows.
#include <iostream>

#include "bench_common.h"
#include "hadoop/cluster.h"
#include "workloads/suite.h"

namespace {

void run_chain(keddah::workloads::Workload w, std::size_t iterations, std::uint64_t seed,
               keddah::util::TextTable& table) {
  using namespace keddah;
  using bench::kGiB;
  hadoop::HadoopCluster cluster(bench::default_config(), seed);
  const workloads::JobEntry chain{w, 4 * kGiB, 8, 0.0, iterations};
  const auto results = workloads::run_jobs(cluster, std::span(&chain, 1));
  const auto trace = cluster.take_trace();
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto job_trace = trace.filter_job(results[i].job_id);
    table.add_row(
        {results[i].job_name, std::to_string(results[i].num_maps),
         util::human_bytes(static_cast<double>(results[i].input_bytes)),
         util::human_bytes(bench::class_bytes(job_trace, net::FlowKind::kShuffle)),
         util::human_bytes(bench::class_bytes(job_trace, net::FlowKind::kHdfsWrite)),
         util::format("%.1f", results[i].duration())});
  }
}

}  // namespace

int main() {
  using namespace keddah;
  bench::banner("Figure 12", "iterative chains: per-iteration traffic (4 GB seed input)");
  util::TextTable table({"iteration", "maps", "input", "shuffle", "hdfs_write", "job_s"});
  run_chain(workloads::Workload::kPageRank, 4, 20000, table);
  run_chain(workloads::Workload::kSort, 3, 20001, table);
  table.print(std::cout);
  std::cout << "\nShape check: pagerank iteration volumes decay ~0.84x each round (map\n"
               "expansion 1.2 x reduce contraction 0.7); sort iterations stay flat; map\n"
               "counts follow the shrinking part files.\n";
  return 0;
}

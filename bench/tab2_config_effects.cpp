// Table 2: cluster-configuration effects on Hadoop traffic (Sort, 8 GB).
//
// Paper shape: replication factor scales HDFS-write bytes linearly (factor
// 1 => ~no off-node write traffic); block size reshapes flows without
// changing totals much; later slow-start pushes the shuffle after the map
// phase and stretches the job.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/sweep.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace {

struct ConfigRow {
  std::string label;
  keddah::hadoop::ClusterConfig cfg;
};

void add_row(keddah::util::TextTable& table, const std::string& label,
             const keddah::workloads::RunOutcome& outcome) {
  using namespace keddah;
  const auto& trace = outcome.trace;
  table.add_row({label, util::human_bytes(bench::class_bytes(trace, net::FlowKind::kHdfsRead)),
                 util::human_bytes(bench::class_bytes(trace, net::FlowKind::kShuffle)),
                 util::human_bytes(bench::class_bytes(trace, net::FlowKind::kHdfsWrite)),
                 std::to_string(bench::class_flows(trace, net::FlowKind::kHdfsWrite)),
                 util::format("%.1f", outcome.result.duration()),
                 util::format("%.1f", outcome.result.shuffle_start - outcome.result.submit_time),
                 util::format("%.1f",
                              outcome.result.map_phase_end - outcome.result.submit_time)});
}

}  // namespace

int main() {
  using namespace keddah;
  using bench::kGiB;

  bench::banner("Table 2", "config parameter effects on Sort traffic (8 GB, 16 reducers)");
  util::TextTable table({"config", "hdfs_read", "shuffle", "hdfs_write", "write_flows", "job_s",
                         "shuffle_start_s", "maps_end_s"});

  // Build the labeled config rows up front, then simulate them all as one
  // parallel sweep; the table is filled in row order afterwards.
  std::vector<ConfigRow> rows;
  for (const std::uint32_t repl : {1u, 2u, 3u}) {
    auto cfg = bench::default_config();
    cfg.replication = repl;
    rows.push_back({util::format("replication=%u", repl), cfg});
  }
  for (const std::uint64_t block_mb : {64ull, 128ull, 256ull}) {
    auto cfg = bench::default_config();
    cfg.block_size = block_mb << 20;
    rows.push_back({util::format("block=%lluMB", static_cast<unsigned long long>(block_mb)), cfg});
  }
  for (const double slowstart : {0.05, 0.5, 0.8, 1.0}) {
    auto cfg = bench::default_config();
    cfg.slowstart = slowstart;
    rows.push_back({util::format("slowstart=%.2f", slowstart), cfg});
  }

  core::SweepRunner runner({.threads = 0});
  const auto outcomes = runner.map(rows.size(), [&](std::size_t i) {
    return workloads::run_single(rows[i].cfg, workloads::Workload::kSort, 8 * kGiB, 16,
                                 util::derive_seed(5000, i));
  });
  for (std::size_t i = 0; i < rows.size(); ++i) add_row(table, rows[i].label, outcomes[i]);
  table.print(std::cout);
  std::cout << "\nShape check: write bytes ~ (replication-1) x 8 GB; block size leaves\n"
               "volumes stable but changes write flow count; slowstart=1.0 pushes\n"
               "shuffle_start to maps_end.\n";
  return 0;
}

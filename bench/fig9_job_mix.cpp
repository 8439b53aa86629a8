// Figure 9: multi-job mixes — the "realistic scenarios" Keddah enables.
//
// Paper shape: concurrent jobs contend for containers and bandwidth,
// stretching each other's runtimes versus isolated execution; a Keddah mix
// generated from per-job models reproduces the aggregate load envelope.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "keddah/toolchain.h"

int main() {
  using namespace keddah;
  using bench::kGiB;

  bench::banner("Figure 9", "concurrent job mix: captured vs model-composed");
  const auto cfg = bench::default_config();

  // --- capture: three jobs overlapping on one cluster ---
  const std::vector<workloads::JobEntry> mix_jobs = {
      {workloads::Workload::kSort, 4 * kGiB, 8, 0.0},
      {workloads::Workload::kWordCount, 4 * kGiB, 8, 10.0},
      {workloads::Workload::kGrep, 8 * kGiB, 8, 20.0},
  };
  hadoop::HadoopCluster cluster(cfg, 14000);
  auto results = workloads::run_jobs(cluster, mix_jobs);
  // Job ids follow submission order, which is entry order here.
  std::ranges::sort(results, {}, &hadoop::JobResult::job_id);
  const auto trace = cluster.take_trace();

  util::print_section(std::cout, "captured: per-job timings, concurrent vs isolated");
  util::TextTable jobs_table(
      {"job", "submit_s", "duration_conc_s", "duration_isolated_s", "stretch"});
  for (std::size_t i = 0; i < mix_jobs.size(); ++i) {
    const auto isolated = workloads::run_single(cfg, mix_jobs[i].workload,
                                                mix_jobs[i].input_bytes,
                                                mix_jobs[i].num_reducers, 14100 + i);
    jobs_table.add_row(
        {workloads::workload_name(mix_jobs[i].workload),
         util::format("%.0f", mix_jobs[i].submit_at),
         util::format("%.1f", results[i].duration()),
         util::format("%.1f", isolated.result.duration()),
         util::format("%.2fx", results[i].duration() / isolated.result.duration())});
  }
  jobs_table.print(std::cout);

  // --- model: train each family in isolation, compose the mix ---
  util::print_section(std::cout, "generated mix from per-job models");
  std::vector<model::KeddahModel> models;
  std::uint64_t seed = 14200;
  for (const auto& job : mix_jobs) {
    const std::vector<std::uint64_t> sizes = {job.input_bytes};
    const auto runs = bench::capture(cfg, job.workload, sizes, 2, seed);
    seed += 10;
    models.push_back(core::train(workloads::workload_name(job.workload), runs, cfg));
  }
  std::vector<gen::MixEntry> entries;
  for (std::size_t i = 0; i < mix_jobs.size(); ++i) {
    gen::MixEntry entry;
    entry.model = &models[i];
    entry.scenario.input_bytes = static_cast<double>(mix_jobs[i].input_bytes);
    entry.scenario.num_reducers = mix_jobs[i].num_reducers;
    entry.scenario.num_hosts = cfg.num_workers();
    entry.submit_at = mix_jobs[i].submit_at;
    entries.push_back(entry);
  }
  const auto schedule = gen::generate_mix(entries, util::Rng(9), {});
  const auto replayed = gen::replay(schedule, cfg.build_topology());

  util::TextTable compare({"metric", "captured", "generated"});
  compare.add_row({"flows", std::to_string(trace.size()),
                   std::to_string(replayed.trace.size())});
  compare.add_row({"bytes", util::human_bytes(trace.total_bytes()),
                   util::human_bytes(replayed.trace.total_bytes())});
  compare.add_row({"span_s",
                   util::format("%.1f", trace.last_end() - trace.first_start()),
                   util::format("%.1f", replayed.trace.last_end() -
                                            replayed.trace.first_start())});
  compare.print(std::cout);

  // Aggregate load envelope, 5 s bins, side by side.
  util::print_section(std::cout, "aggregate load (5 s bins)");
  const auto cap_series = trace.throughput_series(5.0);
  const auto gen_series = replayed.trace.throughput_series(5.0);
  util::TextTable envelope({"t_s", "captured", "generated"});
  const std::size_t bins = std::max(cap_series.size(), gen_series.size());
  for (std::size_t b = 0; b < bins; ++b) {
    envelope.add_row({util::format("%.0f", 5.0 * static_cast<double>(b)),
                      util::human_bytes(b < cap_series.size() ? cap_series[b] : 0.0),
                      util::human_bytes(b < gen_series.size() ? gen_series[b] : 0.0)});
  }
  envelope.print(std::cout);
  std::cout << "\nShape check: concurrent jobs stretch (>= ~1x) vs isolated — most visibly\n"
               "the ones sharing the cluster with a shuffle-heavy sort; the generated mix\n"
               "reproduces total volume and span within tens of percent. Per-bin envelope\n"
               "alignment is looser: phase anchors are trained on isolated runs, so\n"
               "contention-induced phase shifts are not modelled (a scope limit shared\n"
               "with the paper's per-job models).\n";
  return 0;
}

// Fat-tree scale benchmark: the acceptance gate for the columnar flow
// arena and the mmap'd capture spill. Drives the workloads::scale scenario
// (10k-host oversubscribed fat-tree, >1M flows by default) through the
// incremental scheduler with capture spilling to disk, and gates on
// flows/sec and peak RSS so a pointer-heavy or RAM-bound regression fails
// the bench instead of shipping. Results go to BENCH_scale.json.
//
// The topology and schedule are built once; each run replays them on a
// fresh Network (cold routing rows included) with a fresh spill. One
// untimed warm-up, then 3 timed runs (5 with --quick); wall_s is the median
// of the timed runs and wall_s_iqr their interquartile range. Peak RSS is
// the process peak over all runs. The counters are deterministic.
//
// The reference scheduler is deliberately not run here — full recomputes
// over a 70k-arc fabric at 1M flows are days of wall clock. Correctness of
// the incremental scheduler on fat-trees is locked by
// tests/net_differential_test.cpp at k=4/k=8, which is the documented
// correctness lock for this bench (ROADMAP.md).
//
// Usage: perf_scale [--quick] [--out PATH] [--spill-dir DIR]
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "capture/collector.h"
#include "capture/spill.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/strings.h"
#include "workloads/scale.h"

namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;
namespace kc = keddah::capture;
namespace kw = keddah::workloads;

namespace {

/// Peak resident set size in MB (Linux ru_maxrss is in KB).
double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// What one run leaves behind besides its wall time; deterministic, so
/// equal on every run.
struct RunOutcome {
  std::uint64_t started = 0;
  std::size_t active = 0;
  std::uint64_t aborted = 0;
  double offered = 0.0;
  double delivered = 0.0;
  std::uint64_t spill_records = 0;
  std::string spill_error;
  kn::SchedulerStats sched;
  kn::ArenaStats arena;
};

/// Replays `sched` on a fresh network over a copy of `topo`, capturing to a
/// spill under `spill_dir`. Returns the seconds spent in sim.run().
double run_once(const kn::Topology& topo, const kw::ScaleSchedule& sched,
                const std::string& spill_dir, RunOutcome& out) {
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.model_latency = false;  // scheduler + arena throughput, not latency tails
  kn::Network net(sim, topo, opts);
  kc::CollectorOptions copts;
  copts.spill_dir = spill_dir;
  kc::FlowCollector collector(net, copts);

  // Self-rescheduling injector: one resident event walks the start-sorted
  // columns instead of pre-scheduling a million closures (each simulator
  // event is a heap-allocated std::function — at 1M flows that alone would
  // dominate RSS and defeat the arena measurement).
  const std::size_t n_flows = sched.size();
  std::size_t next = 0;
  std::function<void()> inject = [&] {
    while (next < n_flows && sched.start[next] <= sim.now()) {
      net.start_flow(sched.src[next], sched.dst[next], ku::Bytes(sched.bytes[next]), {}, nullptr);
      ++next;
    }
    if (next < n_flows) sim.schedule_at(sched.start[next], inject);
  };
  if (n_flows > 0) sim.schedule_at(sched.start[0], inject);

  const auto t0 = std::chrono::steady_clock::now();
  sim.run();
  const auto t1 = std::chrono::steady_clock::now();

  collector.finalize_spill();
  out = RunOutcome{};
  out.sched = net.scheduler_stats();
  out.arena = net.arena_stats();
  // Verify the spilled capture is readable and complete before gating.
  try {
    kc::SpillReader reader(collector.spill_path());
    out.spill_records = reader.size();
  } catch (const std::exception& e) {
    out.spill_error = e.what();
  }
  net.audit_conservation();
  out.started = net.total_flows();
  out.active = net.active_flows();
  out.aborted = net.aborted_flows();
  out.offered = net.offered_bytes().value();
  out.delivered = net.delivered_bytes().value();
  return std::chrono::duration<double>(t1 - t0).count();
}

struct Gate {
  const char* name;
  bool passed;
  std::string detail;
};

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_scale.json";
  std::string spill_dir = "perf_scale_spill";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
    if (std::strcmp(argv[i], "--spill-dir") == 0 && i + 1 < argc) spill_dir = argv[++i];
  }

  kw::ScaleSpec spec;
  std::size_t reps = 3;
  // Gate floors/ceilings, set from measured full-run numbers with wide
  // headroom (shared CI machines are noisy): the full run measures
  // ~320k flows/s (median) and ~83 MB peak RSS on a dev box.
  double min_flows_per_s = 40000.0;
  double max_rss_mb = 256.0;
  if (quick) {
    // CI-sized: k=12 fat-tree (432 hosts), ~15k flows, seconds of wall
    // clock, same machinery end to end. Quick gates are loose enough to
    // pass under a sanitizer (check_sanitize.sh runs this mode): a dev box
    // measures ~95k flows/s and ~6 MB peak RSS natively.
    spec.target_hosts = 400;
    spec.local_waves = 6;
    spec.flows_per_host_per_wave = 4;
    spec.cross_waves = 1;
    spec.cross_flows_per_wave = 5000;
    reps = 5;
    min_flows_per_s = 2000.0;
    max_rss_mb = 768.0;
  }

  const std::size_t k = kw::fat_tree_k_for_hosts(spec.target_hosts);
  std::printf("perf_scale: building k=%zu fat-tree (oversubscription %.1f:1)...\n", k,
              spec.oversubscription);
  const kn::Topology topo = kw::make_scale_topology(spec);
  const std::size_t hosts = topo.hosts().size();

  std::printf("perf_scale: generating schedule...\n");
  const kw::ScaleSchedule sched = kw::make_scale_schedule(topo, spec);
  const std::size_t n_flows = sched.size();
  std::printf("perf_scale: %zu hosts, %zu flows, spilling capture to %s; 1 warm-up + %zu runs\n",
              hosts, n_flows, spill_dir.c_str(), reps);

  RunOutcome run;
  const keddah::bench::Timing timing = keddah::bench::time_repeated(
      reps, [&] { return run_once(topo, sched, spill_dir, run); });
  const double wall_s = timing.median_s();
  const double flows_per_s = static_cast<double>(n_flows) / wall_s;
  const double rss_mb = peak_rss_mb();
  const kn::SchedulerStats& ss = run.sched;
  const kn::ArenaStats& as = run.arena;

  std::vector<Gate> gates;
  gates.push_back({"all_flows_started", run.started == n_flows,
                   ku::format("%llu of %zu", static_cast<unsigned long long>(run.started),
                              n_flows)});
  gates.push_back({"all_flows_drained", run.active == 0 && run.aborted == 0,
                   ku::format("%zu active, %llu aborted at end", run.active,
                              static_cast<unsigned long long>(run.aborted))});
  gates.push_back(
      {"bytes_conserved", std::fabs(run.offered - run.delivered) <= 1e-6 * run.offered + 1.0,
       ku::format("offered %.0f B, delivered %.0f B", run.offered, run.delivered)});
  gates.push_back(
      {"spill_complete", run.spill_error.empty() && run.spill_records == n_flows,
       run.spill_error.empty()
           ? ku::format("%llu records", static_cast<unsigned long long>(run.spill_records))
           : run.spill_error});
  gates.push_back({"flows_per_s_floor", flows_per_s >= min_flows_per_s,
                   ku::format("%.0f >= %.0f", flows_per_s, min_flows_per_s)});
  gates.push_back({"peak_rss_ceiling", rss_mb <= max_rss_mb,
                   ku::format("%.0f MB <= %.0f MB", rss_mb, max_rss_mb)});

  bool all_passed = true;
  std::printf("\n%-18s %-6s %s\n", "gate", "state", "detail");
  for (const Gate& g : gates) {
    all_passed = all_passed && g.passed;
    std::printf("%-18s %-6s %s\n", g.name, g.passed ? "PASS" : "FAIL", g.detail.c_str());
  }
  std::printf("\n%zu flows in %.2f s median (IQR %.3f s) -> %.0f flows/s, peak RSS %.0f MB\n",
              n_flows, wall_s, timing.iqr_s(), flows_per_s, rss_mb);
  std::printf("arena: %zu slots (peak live %zu), %llu slot reuses, pool %zu entries, "
              "%llu compactions\n",
              as.slots, as.peak_live, static_cast<unsigned long long>(as.slot_reuses),
              as.path_pool_len, static_cast<unsigned long long>(as.path_pool_compactions));
  std::printf("scheduler: %llu reshares, %.1f links/reshare\n",
              static_cast<unsigned long long>(ss.reshares), ss.links_per_reshare());

  std::string gates_json;
  for (const Gate& g : gates) {
    if (!gates_json.empty()) gates_json += ",";
    gates_json += ku::format("\"%s\":%s", g.name, g.passed ? "true" : "false");
  }
  const std::string json = ku::format(
      "{\n"
      "  \"meta\": %s,\n"
      "  \"quick\": %s,\n"
      "  \"fat_tree_k\": %zu,\n"
      "  \"oversubscription\": %.1f,\n"
      "  \"hosts\": %zu,\n"
      "  \"flows\": %zu,\n"
      "  \"wall_s\": %.3f,\n"
      "  \"wall_s_iqr\": %.3f,\n"
      "  \"flows_per_s\": %.1f,\n"
      "  \"peak_rss_mb\": %.1f,\n"
      "  \"spill_records\": %llu,\n"
      "  \"arena\": {\"slots\": %zu, \"peak_live\": %zu, \"slot_reuses\": %llu, "
      "\"path_pool_len\": %zu, \"compactions\": %llu},\n"
      "  \"scheduler\": {\"reshares\": %llu, \"solves\": %llu, \"links_per_reshare\": %.3f, "
      "\"flows_rerated\": %llu},\n"
      "  \"gates\": {%s},\n"
      "  \"all_gates_passed\": %s\n"
      "}\n",
      keddah::bench::provenance_json(reps).c_str(), quick ? "true" : "false", k,
      spec.oversubscription, hosts, n_flows, wall_s, timing.iqr_s(), flows_per_s, rss_mb,
      static_cast<unsigned long long>(run.spill_records), as.slots, as.peak_live,
      static_cast<unsigned long long>(as.slot_reuses), as.path_pool_len,
      static_cast<unsigned long long>(as.path_pool_compactions),
      static_cast<unsigned long long>(ss.reshares), static_cast<unsigned long long>(ss.solves),
      ss.links_per_reshare(), static_cast<unsigned long long>(ss.flows_rerated),
      gates_json.c_str(), all_passed ? "true" : "false");

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());

  // The spill file of a full run is ~56 MB of scratch; don't leave it around.
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);

  return all_passed ? 0 : 1;
}

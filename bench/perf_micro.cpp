// Micro-benchmarks (google-benchmark): simulator event throughput, max-min
// fair-share recomputation cost, MLE fitting, KS statistics, and a full
// capture->model->replay pipeline iteration. These quantify the substrate
// costs behind the experiment harness.
#include <benchmark/benchmark.h>

#include "gen/replay.h"
#include "keddah/scenario.h"
#include "keddah/toolchain.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/fitting.h"
#include "stats/kstest.h"
#include "util/rng.h"
#include "workloads/suite.h"

namespace {

using namespace keddah;

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      sim.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(sim.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorEventThroughput)->Arg(1000)->Arg(100000);

void BM_MaxMinFairShare(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    net::NetworkOptions opts;
    opts.model_latency = false;
    net::Network net(sim, net::make_rack_tree(4, 8, 1e9, 10e9, 0.0), opts);
    const auto hosts = net.topology().hosts();
    util::Rng rng(1);
    for (std::size_t i = 0; i < flows; ++i) {
      const auto src = hosts[i % hosts.size()];
      auto dst = hosts[(i * 7 + 5) % hosts.size()];
      if (dst == src) dst = hosts[(i + 1) % hosts.size()];
      net.start_flow(src, dst, util::Bytes(1e6 + rng.uniform(0, 1e6)), {}, nullptr);
    }
    sim.run();
    benchmark::DoNotOptimize(net.recomputations());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MaxMinFairShare)->Arg(100)->Arg(1000);

void BM_FitLognormalMle(benchmark::State& state) {
  util::Rng rng(2);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (auto& x : xs) x = rng.lognormal(12.0, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_family(stats::DistFamily::kLognormal, xs));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FitLognormalMle)->Arg(1000)->Arg(10000);

void BM_FitAllFamilies(benchmark::State& state) {
  util::Rng rng(3);
  std::vector<double> xs(static_cast<std::size_t>(state.range(0)));
  for (auto& x : xs) x = rng.weibull(1.4, 5e7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::fit_all(xs));
  }
}
BENCHMARK(BM_FitAllFamilies)->Arg(1000)->Arg(5000);

void BM_TwoSampleKs(benchmark::State& state) {
  util::Rng rng(4);
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> a(n);
  std::vector<double> b(n);
  for (auto& x : a) x = rng.lognormal(10, 1);
  for (auto& x : b) x = rng.lognormal(10.1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(stats::ks_statistic_two_sample(a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TwoSampleKs)->Arg(1000)->Arg(100000);

void BM_EmulateSortJob(benchmark::State& state) {
  hadoop::ClusterConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  const std::uint64_t input = static_cast<std::uint64_t>(state.range(0)) << 30;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto outcome =
        workloads::run_single(cfg, workloads::Workload::kSort, input, 0, seed++);
    benchmark::DoNotOptimize(outcome.trace.size());
  }
  state.SetLabel("input GiB");
}
BENCHMARK(BM_EmulateSortJob)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_FullToolchainIteration(benchmark::State& state) {
  hadoop::ClusterConfig cfg;
  cfg.racks = 2;
  cfg.hosts_per_rack = 4;
  cfg.block_size = 64ull << 20;
  const std::vector<std::uint64_t> sizes = {512ull << 20};
  std::uint64_t seed = 100;
  for (auto _ : state) {
    core::CaptureSpec capture;
    capture.workload = workloads::Workload::kSort;
    capture.input_sizes = sizes;
    capture.seed = seed++;
    const auto runs = core::capture_runs(cfg, capture);
    const auto model = core::train("sort", runs, cfg);
    core::ReproduceSpec reproduce;
    reproduce.scenario.input_bytes = static_cast<double>(sizes[0]);
    reproduce.scenario.num_hosts = 8;
    reproduce.seed = seed;
    const auto result = core::generate_and_replay(model, reproduce, cfg.build_topology());
    benchmark::DoNotOptimize(result.replay.makespan);
  }
}
BENCHMARK(BM_FullToolchainIteration)->Unit(benchmark::kMillisecond);

// Parallel sweep throughput: how many full scenario simulations per second
// the SweepRunner sustains on a fixed 16-scenario batch, serial (Arg=1) vs
// parallel (Arg=2, Arg=4). Real time is the honest axis here — total CPU
// time is ~constant, wall clock is what the thread pool buys down.
void BM_SweepThroughput(benchmark::State& state) {
  constexpr std::size_t kScenarios = 16;
  std::vector<core::ScenarioSpec> specs;
  specs.reserve(kScenarios);
  for (std::size_t i = 0; i < kScenarios; ++i) {
    core::ScenarioSpec spec;
    spec.cluster.racks = 2;
    spec.cluster.hosts_per_rack = 4;
    spec.cluster.block_size = 64ull << 20;
    spec.seed = 7000 + i;
    core::ScenarioSpec::JobEntry job;
    job.workload = workloads::Workload::kSort;
    job.input_bytes = 256ull << 20;
    spec.jobs.push_back(job);
    specs.push_back(std::move(spec));
  }
  const auto threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    const auto outcomes = core::run_scenarios(specs, threads);
    benchmark::DoNotOptimize(outcomes.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kScenarios));
  state.SetLabel("scenarios/sec is items_per_second");
}
BENCHMARK(BM_SweepThroughput)->Arg(1)->Arg(2)->Arg(4)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

// Scheduler fast-path benchmark: drives the incremental and reference
// fair-share schedulers over the same synthetic shuffle loads and reports
// flows/sec plus the counters that explain the speedup (links touched per
// reshare, flows re-rated, heap ops, solve-size distribution). Results go
// to stdout as a table and to BENCH_scheduler.json for machine diffing.
//
// The `large` shape is the acceptance gate for the incremental rewrite:
// eight racks each running a rack-confined all-to-all shuffle means a
// completion in one rack is invisible to the other seven, so the dirty-link
// frontier should cut links-touched-per-reshare by well over 3x versus the
// full recompute. The `dense` shape is its opposite: an open-loop
// all-to-all on the 4x4 testbed merges the fabric into one component, the
// regime of open-loop what-if replay.
//
// Every mode of every shape runs once untimed, then 7 times (5 with
// --quick); wall_s is the median of the timed runs and wall_s_iqr their
// interquartile range. The counters are deterministic.
//
// Usage: perf_scheduler [--quick] [--out PATH]
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/strings.h"

namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

struct Shape {
  std::string name;
  std::size_t flows;  // populated by build()
};

struct ModeResult {
  keddah::bench::Timing timing;
  double flows_per_s = 0.0;  ///< at the median wall time
  kn::SchedulerStats stats;
};

/// One benchmark shape: builds the topology and schedules its flow load.
/// Returns the number of flows injected.
std::size_t build(const std::string& name, ks::Simulator& sim, kn::Network*& net,
                  std::vector<std::unique_ptr<kn::Network>>& keep, bool reference,
                  double scale) {
  kn::NetworkOptions opts;
  opts.model_latency = false;
  opts.reference_scheduler = reference;
  ku::Rng rng(1234);
  std::size_t flows = 0;
  const auto start_all = [&](kn::Network& n, kn::NodeId src, kn::NodeId dst, double bytes,
                             double at) {
    sim.schedule_at(at, [&n, src, dst, bytes] { n.start_flow(src, dst, ku::Bytes(bytes), {}, nullptr); });
    ++flows;
  };
  if (name == "small") {
    // Star, 16 hosts: every reshare is global no matter what — measures the
    // incremental bookkeeping overhead where it cannot win.
    keep.push_back(std::make_unique<kn::Network>(sim, kn::make_star(16, 1e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(600 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      auto dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.0, 7.0)), rng.uniform(0.0, 2.0));
    }
  } else if (name == "medium") {
    // 4x8 rack tree, mixed rack-local and cross-rack traffic: partial
    // decomposition, some reshares stay rack-local.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(4, 8, 1e9, 10e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(1200 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      kn::NodeId dst;
      if (rng.chance(0.7)) {  // rack-local
        const std::size_t rack = static_cast<std::size_t>(i) % 4;
        dst = hosts[rack * 8 + static_cast<std::size_t>(rng.uniform_int(0, 7))];
      } else {
        dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      }
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.0, 7.5)), rng.uniform(0.0, 3.0));
    }
  } else if (name == "mid-mixed") {
    // 6x8 rack tree, the same mixed 70% rack-local pattern as medium but
    // half again as many hosts and double the flows: the lower boundary
    // shape between medium and large, so a regression class that only
    // bites at a particular component size cannot hide between the two.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(6, 8, 1e9, 20e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(2400 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      kn::NodeId dst;
      if (rng.chance(0.7)) {  // rack-local
        const std::size_t rack = static_cast<std::size_t>(i) % 6;
        dst = hosts[rack * 8 + static_cast<std::size_t>(rng.uniform_int(0, 7))];
      } else {
        dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      }
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.0, 7.5)), rng.uniform(0.0, 3.0));
    }
  } else if (name == "mid-local") {
    // 8x8 rack tree at large's size but with 85% rack-local mixed traffic
    // instead of fully rack-confined waves: the upper boundary shape, where
    // occasional cross-rack flows keep merging components that large's
    // all-to-all never connects.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(8, 8, 1e9, 40e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t n = static_cast<std::size_t>(3600 * scale);
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      kn::NodeId dst;
      if (rng.chance(0.85)) {  // rack-local
        const std::size_t rack = static_cast<std::size_t>(i) % 8;
        dst = hosts[rack * 8 + static_cast<std::size_t>(rng.uniform_int(0, 7))];
      } else {
        dst = hosts[rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1)];
      }
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      start_all(*net, src, dst, std::pow(10.0, rng.uniform(4.5, 7.2)), rng.uniform(0.0, 3.0));
    }
  } else if (name == "dense") {
    // The 4x4 testbed (1 GbE access, 10 GbE core) under an open-loop
    // all-to-all: every ordered host pair sends once per wave, arrivals
    // outpace the access links, and the flows merge into one sharing
    // component spanning the fabric.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(4, 4, 1e9, 10e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t waves = static_cast<std::size_t>(8 * scale) + 1;
    for (std::size_t w = 0; w < waves; ++w) {
      for (std::size_t a = 0; a < hosts.size(); ++a) {
        for (std::size_t b = 0; b < hosts.size(); ++b) {
          if (a == b) continue;
          start_all(*net, hosts[a], hosts[b], std::pow(10.0, rng.uniform(5.0, 7.5)),
                    static_cast<double>(w) * 0.4 + rng.uniform(0.0, 0.8));
        }
      }
    }
  } else {  // large
    // 8x8 rack tree, eight concurrent rack-confined all-to-all shuffles:
    // the decomposable case the incremental scheduler is built for.
    keep.push_back(
        std::make_unique<kn::Network>(sim, kn::make_rack_tree(8, 8, 1e9, 40e9, 0.0), opts));
    net = keep.back().get();
    const auto hosts = net->topology().hosts();
    const std::size_t waves = static_cast<std::size_t>(4 * scale) + 1;
    for (std::size_t w = 0; w < waves; ++w) {
      for (std::size_t rack = 0; rack < 8; ++rack) {
        for (std::size_t a = 0; a < 8; ++a) {
          for (std::size_t b = 0; b < 8; ++b) {
            if (a == b) continue;
            start_all(*net, hosts[rack * 8 + a], hosts[rack * 8 + b],
                      std::pow(10.0, rng.uniform(5.0, 7.0)),
                      static_cast<double>(w) * 0.5 + rng.uniform(0.0, 0.4));
          }
        }
      }
    }
  }
  return flows;
}

ModeResult run(const std::string& shape, bool reference, double scale, std::size_t reps) {
  ModeResult r;
  std::size_t flows = 0;
  r.timing = keddah::bench::time_repeated(reps, [&] {
    ks::Simulator sim;
    kn::Network* net = nullptr;
    std::vector<std::unique_ptr<kn::Network>> keep;
    flows = build(shape, sim, net, keep, reference, scale);
    const auto t0 = std::chrono::steady_clock::now();
    sim.run();
    const auto t1 = std::chrono::steady_clock::now();
    r.stats = net->scheduler_stats();  // deterministic: equal on every run
    return std::chrono::duration<double>(t1 - t0).count();
  });
  r.flows_per_s = static_cast<double>(flows) / r.timing.median_s();
  return r;
}

std::string hist_json(const kn::SchedulerStats& s) {
  std::string out = "[";
  for (std::size_t i = 0; i < s.solve_size_hist.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(s.solve_size_hist[i]);
  }
  return out + "]";
}

std::string mode_json(const ModeResult& r) {
  const auto& s = r.stats;
  return ku::format(
      R"({"wall_s":%.6f,"wall_s_iqr":%.6f,"flows_per_s":%.1f,"reshares":%llu,"solves":%llu,"empty_reshares":%llu,"links_touched":%llu,"links_per_reshare":%.3f,"flows_visited":%llu,"flows_rerated":%llu,"heap_ops":%llu,"solve_size_hist":%s})",
      r.timing.median_s(), r.timing.iqr_s(), r.flows_per_s,
      static_cast<unsigned long long>(s.reshares),
      static_cast<unsigned long long>(s.solves), static_cast<unsigned long long>(s.empty_reshares),
      static_cast<unsigned long long>(s.links_touched), s.links_per_reshare(),
      static_cast<unsigned long long>(s.flows_visited),
      static_cast<unsigned long long>(s.flows_rerated),
      static_cast<unsigned long long>(s.heap_ops), hist_json(s).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  double scale = 1.0;
  std::size_t reps = 7;
  std::string out_path = "BENCH_scheduler.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      scale = 0.25;
      reps = 5;
    }
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }

  std::printf("%-9s %-12s %10s %10s %12s %14s %12s %10s\n", "shape", "scheduler", "wall_s",
              "iqr_s", "flows/sec", "links/reshare", "re-rated", "heap_ops");
  std::string json = "{\n  \"meta\": " + keddah::bench::provenance_json(reps) + ",\n";
  bool first = true;
  struct ShapeSummary {
    std::string shape;
    double link_ratio = 0.0;
    double speedup = 0.0;
  };
  std::vector<ShapeSummary> summaries;
  for (const std::string shape :
       {"small", "medium", "mid-mixed", "mid-local", "large", "dense"}) {
    ModeResult results[2];
    for (const bool reference : {false, true}) {
      auto& r = results[reference ? 1 : 0];
      r = run(shape, reference, scale, reps);
      std::printf("%-9s %-12s %10.4f %10.4f %12.0f %14.2f %12llu %10llu\n", shape.c_str(),
                  reference ? "reference" : "incremental", r.timing.median_s(),
                  r.timing.iqr_s(), r.flows_per_s, r.stats.links_per_reshare(),
                  static_cast<unsigned long long>(r.stats.flows_rerated),
                  static_cast<unsigned long long>(r.stats.heap_ops));
    }
    const double link_ratio =
        results[1].stats.links_per_reshare() / results[0].stats.links_per_reshare();
    const double speedup = results[1].timing.median_s() / results[0].timing.median_s();
    std::printf("%-9s -> %.2fx fewer links/reshare, %.2fx median wall speedup\n\n",
                shape.c_str(),
                link_ratio, speedup);
    if (!first) json += ",\n";
    first = false;
    json += ku::format(
        "  \"%s\": {\n    \"incremental\": %s,\n    \"reference\": %s,\n"
        "    \"links_per_reshare_ratio\": %.3f,\n    \"wall_speedup\": %.3f\n  }",
        shape.c_str(), mode_json(results[0]).c_str(), mode_json(results[1]).c_str(), link_ratio,
        speedup);
    summaries.push_back({shape, link_ratio, speedup});
  }
  json += "\n}\n";

  // Per-shape rollup of the two headline ratios (reference / incremental),
  // so a --quick run ends with the whole comparison in one table.
  std::printf("%-9s %22s %14s\n", "shape", "links_per_reshare_ratio", "wall_speedup");
  for (const auto& s : summaries) {
    std::printf("%-9s %21.2fx %13.2fx\n", s.shape.c_str(), s.link_ratio, s.speedup);
  }

  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

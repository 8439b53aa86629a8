// Property-based tests of the network engine, parameterized across
// topologies: conservation of bytes, capacity limits, utilization
// accounting, and determinism — the invariants every fabric must satisfy.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "capture/collector.h"
#include "net/network.h"
#include "util/rng.h"

namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

enum class TopoKind { kStar, kRackTree, kOversubTree, kFatTree, kDumbbell };

std::string topo_name(TopoKind kind) {
  switch (kind) {
    case TopoKind::kStar:
      return "star";
    case TopoKind::kRackTree:
      return "racktree";
    case TopoKind::kOversubTree:
      return "oversubtree";
    case TopoKind::kFatTree:
      return "fattree";
    case TopoKind::kDumbbell:
      return "dumbbell";
  }
  return "?";
}

kn::Topology make(TopoKind kind) {
  switch (kind) {
    case TopoKind::kStar:
      return kn::make_star(12, 1e9, 1e-4);
    case TopoKind::kRackTree:
      return kn::make_rack_tree(3, 4, 1e9, 10e9, 1e-4);
    case TopoKind::kOversubTree:
      return kn::make_rack_tree(4, 4, 1e9, 1e9, 1e-4);
    case TopoKind::kFatTree:
      return kn::make_fat_tree(4, 1e9, 1e-4);
    case TopoKind::kDumbbell:
      return kn::make_dumbbell(6, 6, 1e9, 2e9, 1e-4);
  }
  return kn::make_star(2, 1e9, 0.0);
}

class NetworkProperty : public ::testing::TestWithParam<TopoKind> {};

/// Starts `n` random flows and returns (network harness runs to completion).
struct RandomLoad {
  ks::Simulator sim;
  kn::Network net;
  double injected = 0.0;
  int completions = 0;
  std::size_t count;

  RandomLoad(TopoKind kind, std::size_t n, std::uint64_t seed, kn::NetworkOptions opts = {})
      : net(sim, make(kind), opts), count(n) {
    ku::Rng rng(seed);
    const auto hosts = net.topology().hosts();
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
      auto dst = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      const double bytes = std::pow(10.0, rng.uniform(3.0, 8.0));  // 1 KB .. 100 MB
      const double start = rng.uniform(0.0, 5.0);
      injected += bytes;
      sim.schedule_at(start, [this, src, dst, bytes] {
        net.start_flow(src, dst, ku::Bytes(bytes), {}, [this](const kn::Flow&) { ++completions; });
      });
    }
  }
};

}  // namespace

TEST_P(NetworkProperty, EveryByteIsDelivered) {
  RandomLoad load(GetParam(), 200, 42);
  load.sim.run();
  EXPECT_EQ(load.completions, 200);
  EXPECT_NEAR(load.net.delivered_bytes().value(), load.injected, 1e-3 * load.injected);
  EXPECT_EQ(load.net.active_flows(), 0u);
}

TEST_P(NetworkProperty, ArcThroughputNeverExceedsCapacity) {
  RandomLoad load(GetParam(), 300, 43);
  load.sim.run();
  const auto& topo = load.net.topology();
  for (kn::LinkId l = 0; l < topo.num_links(); ++l) {
    for (std::uint8_t dir = 0; dir < 2; ++dir) {
      const kn::Arc arc{l, dir};
      // Mean utilization over the run can never exceed 1 (with small
      // numerical slack).
      EXPECT_LE(load.net.arc_utilization(arc), 1.0 + 1e-6)
          << topo_name(GetParam()) << " link " << l << " dir " << int(dir);
    }
  }
}

TEST_P(NetworkProperty, ArcBytesConsistentWithFlows) {
  // A single flow: every arc on its path carries exactly its bytes; other
  // arcs carry nothing.
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.model_latency = false;
  kn::Network net(sim, make(GetParam()), opts);
  const auto hosts = net.topology().hosts();
  const double bytes = 5e6;
  const auto id = net.start_flow(hosts.front(), hosts.back(), ku::Bytes(bytes), {}, nullptr);
  sim.step();  // activation computes the path
  const auto* flow = net.find_flow(id);
  ASSERT_NE(flow, nullptr);
  const auto path = flow->path;
  sim.run();
  double on_path = 0.0;
  for (const auto arc : path) {
    EXPECT_NEAR(net.arc_bytes(arc), bytes, 1.0);
    on_path += net.arc_bytes(arc);
  }
  // Total arc bytes = path length x payload (no other traffic).
  double total = 0.0;
  for (kn::LinkId l = 0; l < net.topology().num_links(); ++l) total += net.link_bytes(l);
  EXPECT_NEAR(total, on_path, 1.0);
}

TEST_P(NetworkProperty, DeterministicAcrossRuns) {
  RandomLoad a(GetParam(), 100, 77);
  RandomLoad b(GetParam(), 100, 77);
  a.sim.run();
  b.sim.run();
  EXPECT_DOUBLE_EQ(a.sim.now(), b.sim.now());
  EXPECT_DOUBLE_EQ(a.net.delivered_bytes().value(), b.net.delivered_bytes().value());
  EXPECT_EQ(a.net.recomputations(), b.net.recomputations());
}

TEST_P(NetworkProperty, SlowStartDelaysSmallFlowsMore) {
  auto run_one = [&](bool slow_start, double bytes) {
    ks::Simulator sim;
    kn::NetworkOptions opts;
    opts.model_slow_start = slow_start;
    kn::Network net(sim, make(GetParam()), opts);
    const auto hosts = net.topology().hosts();
    double end = 0.0;
    net.start_flow(hosts.front(), hosts.back(), ku::Bytes(bytes), {},
                   [&](const kn::Flow& f) { end = f.end_time; });
    sim.run();
    return end;
  };
  const double small = 2000.0;
  const double big = 5e7;
  const double small_penalty = run_one(true, small) - run_one(false, small);
  const double big_penalty = run_one(true, big) - run_one(false, big);
  EXPECT_GT(small_penalty, 0.0);
  EXPECT_GT(big_penalty, small_penalty);  // more ramp rounds...
  // ...but the relative inflation is far larger for the small flow.
  EXPECT_GT(small_penalty / run_one(false, small), big_penalty / run_one(false, big));
}

TEST_P(NetworkProperty, CaptureSeesEveryNonLoopbackFlow) {
  ks::Simulator sim;
  kn::Network net(sim, make(GetParam()));
  keddah::capture::FlowCollector collector(net);
  const auto hosts = net.topology().hosts();
  const std::size_t n = 50;
  ku::Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    const auto src = hosts[i % hosts.size()];
    auto dst = hosts[(i * 3 + 1) % hosts.size()];
    if (dst == src) dst = hosts[(i * 3 + 2) % hosts.size()];
    net.start_flow(src, dst, ku::Bytes(1000.0 * static_cast<double>(i + 1)), {}, nullptr);
  }
  sim.run();
  EXPECT_EQ(collector.trace().size(), n);
}

// --- Max-min fairness invariants, checked after every simulator event ----
//
// These run the simulation one event at a time and re-validate the water
// level between every pair of events, in both scheduler modes. They are the
// property-side complement of tests/net_differential_test.cpp: the
// differential harness proves incremental == reference, these prove both
// are actually max-min fair.

namespace {

/// Asserts the instantaneous rate assignment is a max-min allocation:
/// (a) no arc is oversubscribed, and (b) every flow below its cap crosses
/// at least one saturated arc (otherwise its rate could be raised without
/// hurting anyone — not max-min).
void expect_max_min(const kn::Network& net, const std::string& where) {
  const auto& topo = net.topology();
  std::vector<double> arc_load(topo.num_links() * 2, 0.0);
  // visit_active_flows passes a view it overwrites per flow: keep copies.
  std::vector<kn::Flow> flows;
  net.visit_active_flows([&](const kn::Flow& f) {
    if (f.path.empty() || f.rate_bps <= 0.0) return;  // loopback / not yet rated
    for (const auto arc : f.path) arc_load[arc.index()] += f.rate_bps;
    flows.push_back(f);
  });
  for (kn::LinkId l = 0; l < topo.num_links(); ++l) {
    const double cap = topo.link(l).capacity.bps();
    for (std::uint8_t dir = 0; dir < 2; ++dir) {
      EXPECT_LE(arc_load[l * 2 + dir], cap * (1.0 + 1e-9))
          << where << ": link " << l << " dir " << int(dir) << " oversubscribed";
    }
  }
  for (const kn::Flow& f : flows) {
    if (f.rate_bps + 1e-6 * f.rate_cap_bps >= f.rate_cap_bps) continue;  // at cap
    bool bottlenecked = false;
    for (const auto arc : f.path) {
      const double cap = topo.link(arc.link).capacity.bps();
      if (arc_load[arc.index()] >= cap * (1.0 - 1e-9)) {
        bottlenecked = true;
        break;
      }
    }
    EXPECT_TRUE(bottlenecked) << where << ": flow " << f.id << " at " << f.rate_bps
                              << " bps (< cap " << f.rate_cap_bps
                              << ") crosses no saturated arc";
  }
}

}  // namespace

TEST_P(NetworkProperty, MaxMinInvariantsHoldAfterEveryEvent) {
  for (const bool reference : {false, true}) {
    kn::NetworkOptions opts;
    opts.reference_scheduler = reference;
    RandomLoad load(GetParam(), 120, 91, opts);
    std::size_t steps = 0;
    while (load.sim.step()) {
      load.net.audit_scheduler();
      expect_max_min(load.net, topo_name(GetParam()) + (reference ? "/ref" : "/inc") +
                                   " step " + std::to_string(++steps));
      if (HasFailure()) return;  // one detailed failure beats thousands
    }
    EXPECT_EQ(load.completions, 120);
  }
}

// One dense shape under the same per-event checks: a 200-flow open-loop
// burst on the oversubscribed 4x4 rack tree is one sharing component
// spanning the fabric, so every solve scans the whole fabric's arcs.
// Slow-start activates flows out of id order and targeted aborts free
// slots mid-burst, so audit_scheduler() checks the member lists, the
// completion heap and the arena's slot reuse after every event.
TEST(NetworkDense, AuditAndMaxMinHoldAfterEveryEvent) {
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");
  for (const bool reference : {false, true}) {
    ks::Simulator sim;
    kn::NetworkOptions opts;
    opts.model_slow_start = true;
    opts.reference_scheduler = reference;
    kn::Network net(sim, make(TopoKind::kOversubTree), opts);
    const auto hosts = net.topology().hosts();
    ku::Rng rng(2026);
    const std::size_t n = 200;
    int completions = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const auto src = hosts[i % hosts.size()];
      // Offsets 1..13 of 16 hosts: never a loopback, many distinct pairs.
      const auto dst = hosts[(i + 1 + i / hosts.size()) % hosts.size()];
      const double bytes = std::pow(10.0, rng.uniform(4.0, 7.0));
      sim.schedule_at(rng.uniform(0.0, 0.02), [&net, &completions, src, dst, bytes] {
        net.start_flow(src, dst, ku::Bytes(bytes), {}, [&completions](const kn::Flow&) {
          ++completions;
        });
      });
    }
    for (const kn::FlowId victim : {7u, 60u, 61u, 150u}) {
      sim.schedule_at(0.03, [&net, victim] { net.abort_flow(victim); });
    }
    std::size_t steps = 0;
    while (sim.step()) {
      net.audit_scheduler();
      expect_max_min(net, std::string(reference ? "dense/ref" : "dense/inc") + " step " +
                              std::to_string(++steps));
      if (HasFailure()) return;
    }
    EXPECT_EQ(completions, static_cast<int>(n));
  }
}

TEST_P(NetworkProperty, NoOpCapacityChangeIsFreeAndRateNeutral) {
  // Rewriting every link to its current capacity must leave the dirty set
  // empty: the solver must not run and no flow's rate may move a bit.
  // (Reference mode deliberately re-solves everything on every reshare, so
  // this property is incremental-only — pin the mode.)
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");
  RandomLoad load(GetParam(), 150, 92);
  // Run half the events so a healthy mix of flows is mid-flight.
  for (int i = 0; i < 200 && load.sim.step(); ++i) {
  }
  std::map<kn::FlowId, double> before;
  load.net.visit_active_flows([&](const kn::Flow& f) { before[f.id] = f.rate_bps; });
  ASSERT_FALSE(before.empty());
  const auto solves_before = load.net.scheduler_stats().solves;
  const auto empties_before = load.net.scheduler_stats().empty_reshares;
  const auto& topo = load.net.topology();
  for (kn::LinkId l = 0; l < topo.num_links(); ++l) {
    load.net.set_link_capacity(l, topo.link(l).capacity);
  }
  EXPECT_EQ(load.net.scheduler_stats().solves, solves_before)
      << "no-op capacity writes must not reach the solver";
  EXPECT_EQ(load.net.scheduler_stats().empty_reshares,
            empties_before + topo.num_links());
  load.net.visit_active_flows([&](const kn::Flow& f) {
    auto it = before.find(f.id);
    ASSERT_NE(it, before.end());
    EXPECT_EQ(f.rate_bps, it->second) << "flow " << f.id << " re-rated by a no-op";
  });
  load.sim.run();
  EXPECT_EQ(load.completions, 150);
}

INSTANTIATE_TEST_SUITE_P(AllTopologies, NetworkProperty,
                         ::testing::Values(TopoKind::kStar, TopoKind::kRackTree,
                                           TopoKind::kOversubTree, TopoKind::kFatTree,
                                           TopoKind::kDumbbell),
                         [](const auto& info) { return topo_name(info.param); });

namespace {

/// Everything observable from one churn run, keyed by flow id. Two runs of
/// the same seed must produce equal ChurnResults regardless of how the
/// arena recycles slots or compacts its path pool underneath.
struct ChurnResult {
  /// (end_time, delivered bytes, aborted, src, dst) per completed flow.
  std::map<kn::FlowId, std::tuple<double, double, bool, kn::NodeId, kn::NodeId>> flows;
  kn::SchedulerStats scheduler;
  kn::ArenaStats arena;
  double delivered = 0.0;
  double aborted_bytes = 0.0;
};

/// A slot-churn workload: short overlapping waves of flows with frequent
/// completions, targeted aborts, and node-down windows, so arena slots are
/// freed and reallocated constantly and abandoned path segments pile up.
/// `compact_min` tunes NetworkOptions::path_pool_compact_min — a tiny value
/// makes the pool compact aggressively mid-run, the default almost never.
ChurnResult run_churn(std::uint64_t seed, std::size_t compact_min) {
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.model_latency = false;
  opts.path_pool_compact_min = compact_min;
  kn::Network net(sim, kn::make_fat_tree(4, 1e9, 1e-4, 2.0), opts);
  const auto hosts = net.topology().hosts();
  ChurnResult result;
  ku::Rng rng(seed);

  const std::size_t waves = 8;
  const std::size_t flows_per_wave = 12;
  std::size_t flow_counter = 0;
  for (std::size_t w = 0; w < waves; ++w) {
    const double t0 = 0.4 * static_cast<double>(w);
    for (std::size_t i = 0; i < flows_per_wave; ++i) {
      const auto src = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
      auto dst = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
      if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
      const double bytes = std::pow(10.0, rng.uniform(3.0, 6.5));
      const double start = t0 + rng.uniform(0.0, 0.3);
      sim.schedule_at(start, [&net, &result, src, dst, bytes] {
        net.start_flow(src, dst, ku::Bytes(bytes), {}, [&result](const kn::Flow& f) {
          result.flows[f.id] = {f.end_time, f.bytes.value(), f.aborted, f.src, f.dst};
        });
      });
      ++flow_counter;
    }
    // Churn events per wave: a targeted abort and, on some waves, a host
    // outage that aborts everything touching it (freeing several slots and
    // abandoning their path segments at once).
    const auto victim =
        static_cast<kn::FlowId>(rng.uniform_int(1, static_cast<std::int64_t>(flow_counter)));
    sim.schedule_at(t0 + rng.uniform(0.05, 0.35), [&net, victim] { net.abort_flow(victim); });
    if (rng.chance(0.4)) {
      const auto node = hosts[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
      const double at = t0 + rng.uniform(0.05, 0.3);
      sim.schedule_at(at, [&net, node] {
        net.set_node_down(node);
        net.abort_flows_touching(node);
      });
      sim.schedule_at(at + 0.2, [&net, node] { net.set_node_up(node); });
    }
  }
  sim.run();
  net.audit_scheduler();      // arena/pool cross-links consistent at quiescence
  net.audit_conservation();   // offered == delivered + aborted, per class
  result.scheduler = net.scheduler_stats();
  result.arena = net.arena_stats();
  result.delivered = net.delivered_bytes().value();
  result.aborted_bytes = net.aborted_bytes().value();
  EXPECT_EQ(net.active_flows(), 0u);
  return result;
}

}  // namespace

// 50 seeded churn scenarios, each run twice: with the default (lazy)
// compaction threshold and with an eager one that forces the path pool to
// compact repeatedly mid-run. Compaction and slot reuse are pure storage
// moves — flow identity, completion times, byte ledgers, and every
// SchedulerStats counter must be bit-identical across the two runs.
TEST(ArenaChurn, SlotReuseAndCompactionAreInvisibleAcrossFiftySeeds) {
  std::uint64_t seeds_with_compactions = 0;
  std::uint64_t seeds_with_reuse = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const ChurnResult lazy = run_churn(seed, /*compact_min=*/4096);
    const ChurnResult eager = run_churn(seed, /*compact_min=*/1);

    EXPECT_EQ(lazy.delivered, eager.delivered);
    EXPECT_EQ(lazy.aborted_bytes, eager.aborted_bytes);
    ASSERT_EQ(lazy.flows.size(), eager.flows.size());
    for (const auto& [id, got] : lazy.flows) {
      const auto it = eager.flows.find(id);
      ASSERT_NE(it, eager.flows.end()) << "flow " << id << " lost under eager compaction";
      EXPECT_EQ(got, it->second) << "flow " << id;
    }
    // The scheduler must not even notice the storage difference: identical
    // solve/visit/rerate/heap counters, not merely identical outputs.
    EXPECT_EQ(lazy.scheduler.reshares, eager.scheduler.reshares);
    EXPECT_EQ(lazy.scheduler.solves, eager.scheduler.solves);
    EXPECT_EQ(lazy.scheduler.links_touched, eager.scheduler.links_touched);
    EXPECT_EQ(lazy.scheduler.flows_visited, eager.scheduler.flows_visited);
    EXPECT_EQ(lazy.scheduler.flows_rerated, eager.scheduler.flows_rerated);
    EXPECT_EQ(lazy.scheduler.heap_ops, eager.scheduler.heap_ops);
    // Arena behaviour differs only where it should: same slot recycling,
    // compactions only on the eager side.
    EXPECT_EQ(lazy.arena.slots, eager.arena.slots);
    EXPECT_EQ(lazy.arena.peak_live, eager.arena.peak_live);
    EXPECT_EQ(lazy.arena.slot_reuses, eager.arena.slot_reuses);
    EXPECT_EQ(lazy.arena.live, 0u);
    EXPECT_EQ(eager.arena.live, 0u);
    EXPECT_EQ(lazy.arena.path_pool_compactions, 0u)
        << "default threshold should not compact a pool this small";
    if (eager.arena.path_pool_compactions > 0) ++seeds_with_compactions;
    if (eager.arena.slot_reuses > 0) ++seeds_with_reuse;
  }
  // The sweep must actually exercise the machinery it claims to test.
  // Reuse-in-place absorbs most reallocations (same fabric, similar path
  // lengths), so only a fraction of seeds ever trip the compaction
  // condition even at the eager threshold — demand a floor, not a rate.
  EXPECT_GE(seeds_with_reuse, 45u);
  EXPECT_GE(seeds_with_compactions, 10u);
}

// Differential test harness for the fair-share scheduler: the incremental
// hot path (dirty-arc frontier, component-restricted solves) and the
// reference full-recompute scheduler are two dirty-marking policies over the
// same engine, and DESIGN.md §9 argues the resulting allocations are
// bit-identical. This file holds the argument to account: identical
// randomized scenarios — seed-swept arrival processes, rate caps, capacity
// changes, node failures, mid-flight aborts — run through both modes, and
// every completion time, per-class byte ledger, and fault counter must match
// EXACTLY (EXPECT_EQ on doubles, not EXPECT_NEAR). Any divergence means the
// incremental scheduler failed to re-solve a component it should have.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <vector>

#include "keddah/scenario.h"
#include "net/network.h"
#include "util/rng.h"

namespace kc = keddah::core;
namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

kn::Topology make_topology(std::uint64_t seed) {
  switch (seed % 5) {
    case 0:
      return kn::make_star(10, 1e9, 1e-4);
    case 1:
      return kn::make_rack_tree(3, 4, 1e9, 10e9, 1e-4);
    case 2:
      return kn::make_rack_tree(4, 4, 1e9, 1e9, 1e-4);  // oversubscribed core
    case 3:
      return kn::make_fat_tree(4, 1e9, 1e-4);
    default:
      return kn::make_dumbbell(5, 5, 1e9, 2e9, 1e-4);
  }
}

/// What one scheduler mode produced for a scenario: everything downstream
/// code could observe, keyed by flow id where per-flow.
struct RunResult {
  /// (end_time, delivered bytes, aborted) per completed flow.
  std::map<kn::FlowId, std::tuple<double, double, bool>> flows;
  double final_time = 0.0;
  double delivered = 0.0;
  double aborted_bytes = 0.0;
  std::uint64_t aborted_flows = 0;
  kn::ClassTotals totals[kn::kNumFlowKinds];
  kn::SchedulerStats scheduler;
};

/// Fills the end-of-run part of a RunResult once the simulation drained.
void finish_run(const ks::Simulator& sim, const kn::Network& net, RunResult& result) {
  net.audit_scheduler();  // structures must be consistent at quiescence
  result.final_time = sim.now();
  result.delivered = net.delivered_bytes().value();
  result.aborted_bytes = net.aborted_bytes().value();
  result.aborted_flows = net.aborted_flows();
  for (std::size_t k = 0; k < kn::kNumFlowKinds; ++k) {
    result.totals[k] = net.class_totals(static_cast<kn::FlowKind>(k));
  }
  result.scheduler = net.scheduler_stats();
}

/// Replays seed-derived traffic plus a seed-derived fault plan through one
/// scheduler mode. Both modes must see the byte-for-byte same call sequence,
/// so every decision here draws from the scenario Rng only — never from
/// engine state.
RunResult run_mode_on(const kn::Topology& topology, std::uint64_t seed, bool reference) {
  // The env switch would override NetworkOptions and silently collapse the
  // differential into reference-vs-reference; these tests pin the mode.
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.model_latency = (seed % 3 != 0);
  opts.reference_scheduler = reference;
  kn::Network net(sim, topology, opts);
  const auto hosts = net.topology().hosts();

  RunResult result;
  ku::Rng rng(seed);

  // Traffic: a few dozen flows with log-uniform sizes, some rate-capped,
  // spread over a few seconds so arrivals interleave with completions.
  const std::size_t num_flows = 30 + seed % 21;
  std::vector<kn::FlowId> started;
  for (std::size_t i = 0; i < num_flows; ++i) {
    const auto src = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    auto dst = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
    const double bytes = std::pow(10.0, rng.uniform(3.5, 7.5));
    const double start = rng.uniform(0.0, 4.0);
    const double cap = rng.chance(0.25) ? rng.uniform(1e7, 5e8) : 0.0;
    kn::FlowMeta meta;
    meta.kind = static_cast<kn::FlowKind>(rng.uniform_int(0, 4));
    sim.schedule_at(start, [&net, &result, src, dst, bytes, cap, meta] {
      net.start_flow(src, dst, ku::Bytes(bytes), meta,
                     [&result](const kn::Flow& f) {
                       result.flows[f.id] = {f.end_time, f.bytes.value(), f.aborted};
                     },
                     ku::Rate::bps(cap));
    });
  }

  // Fault plan: capacity degradations with restores, node-down windows with
  // active-flow aborts, and targeted single-flow aborts.
  const std::size_t num_faults = 3 + seed % 4;
  for (std::size_t i = 0; i < num_faults; ++i) {
    const double at = rng.uniform(0.5, 6.0);
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    switch (kind) {
      case 0: {  // degrade a random link, restore it later
        const auto link = static_cast<kn::LinkId>(
            rng.uniform_int(0, static_cast<std::int64_t>(net.topology().num_links()) - 1));
        const double factor = rng.uniform(0.05, 0.5);
        const double duration = rng.uniform(0.5, 3.0);
        sim.schedule_at(at, [&net, link, factor] {
          net.set_link_capacity(link, net.topology().link(link).capacity * factor);
        });
        sim.schedule_at(at + duration, [&net, link, factor] {
          net.set_link_capacity(link, net.topology().link(link).capacity * (1.0 / factor));
        });
        break;
      }
      case 1: {  // node goes down, active flows abort, node comes back
        const auto node = hosts[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
        const double duration = rng.uniform(0.5, 2.0);
        sim.schedule_at(at, [&net, node] {
          net.set_node_down(node);
          net.abort_flows_touching(node);
        });
        sim.schedule_at(at + duration, [&net, node] { net.set_node_up(node); });
        break;
      }
      default: {  // abort one specific flow id if it happens to be active
        const auto victim = static_cast<kn::FlowId>(
            rng.uniform_int(1, static_cast<std::int64_t>(num_flows)));
        sim.schedule_at(at, [&net, victim] { net.abort_flow(victim); });
        break;
      }
    }
  }

  sim.run();
  finish_run(sim, net, result);
  EXPECT_EQ(net.reference_scheduler(), reference);
  return result;
}

/// Open-loop all-to-all on the oversubscribed 4x4 rack tree: arrivals
/// outpace the fabric, so a few hundred flows overlap and one sharing
/// component spans the fabric, where every bottleneck scan covers the whole
/// fabric's arcs. Completions and targeted aborts run alongside arrivals,
/// so new flows reuse the arena slots of departed ones. A quarter of the
/// flows are capped at 1/k of a link, a value the water level lands on
/// exactly, so cap rounds tie with real bottlenecks. Some seeds model
/// latency and slow-start, which activates flows out of id order.
RunResult run_dense_mode(std::uint64_t seed, bool reference) {
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");
  ks::Simulator sim;
  kn::NetworkOptions opts;
  opts.model_latency = (seed % 3 != 0);
  opts.model_slow_start = (seed % 3 == 1);
  opts.reference_scheduler = reference;
  kn::Network net(sim, kn::make_rack_tree(4, 4, 1e9, 1e9, 1e-4), opts);
  const auto hosts = net.topology().hosts();
  RunResult result;
  ku::Rng rng(seed);

  const std::size_t num_flows = 800;
  for (std::size_t i = 0; i < num_flows; ++i) {
    const auto src = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    auto dst = hosts[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
    if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
    const double bytes = std::pow(10.0, rng.uniform(4.5, 7.5));
    const double start = rng.uniform(0.0, 2.0);
    const double cap = rng.chance(0.25) ? 1e9 / static_cast<double>(rng.uniform_int(2, 32)) : 0.0;
    sim.schedule_at(start, [&net, &result, src, dst, bytes, cap] {
      net.start_flow(src, dst, ku::Bytes(bytes), {},
                     [&result](const kn::Flow& f) {
                       result.flows[f.id] = {f.end_time, f.bytes.value(), f.aborted};
                     },
                     ku::Rate::bps(cap));
    });
  }
  for (int i = 0; i < 8; ++i) {
    const auto victim =
        static_cast<kn::FlowId>(rng.uniform_int(1, static_cast<std::int64_t>(num_flows)));
    sim.schedule_at(rng.uniform(0.1, 2.5), [&net, victim] { net.abort_flow(victim); });
  }
  sim.run();
  finish_run(sim, net, result);
  EXPECT_GE(net.arena_stats().peak_live, 200u) << "seed " << seed << ": too few concurrent flows";
  EXPECT_GT(net.arena_stats().slot_reuses, num_flows / 2) << "seed " << seed;
  return result;
}

RunResult run_scenario_mode(std::uint64_t seed, bool reference) {
  return run_mode_on(make_topology(seed), seed, reference);
}

void expect_identical(const RunResult& inc, const RunResult& ref, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  // Bit-exact across the board: EXPECT_EQ on doubles, no tolerance.
  EXPECT_EQ(inc.final_time, ref.final_time);
  EXPECT_EQ(inc.delivered, ref.delivered);
  EXPECT_EQ(inc.aborted_bytes, ref.aborted_bytes);
  EXPECT_EQ(inc.aborted_flows, ref.aborted_flows);
  ASSERT_EQ(inc.flows.size(), ref.flows.size());
  for (const auto& [id, got] : inc.flows) {
    const auto it = ref.flows.find(id);
    ASSERT_NE(it, ref.flows.end()) << "flow " << id << " only completed incrementally";
    EXPECT_EQ(std::get<0>(got), std::get<0>(it->second)) << "end_time of flow " << id;
    EXPECT_EQ(std::get<1>(got), std::get<1>(it->second)) << "bytes of flow " << id;
    EXPECT_EQ(std::get<2>(got), std::get<2>(it->second)) << "aborted of flow " << id;
  }
  for (std::size_t k = 0; k < kn::kNumFlowKinds; ++k) {
    SCOPED_TRACE(std::string("class ") + kn::flow_kind_name(static_cast<kn::FlowKind>(k)));
    EXPECT_EQ(inc.totals[k].offered.value(), ref.totals[k].offered.value());
    EXPECT_EQ(inc.totals[k].delivered.value(), ref.totals[k].delivered.value());
    EXPECT_EQ(inc.totals[k].aborted.value(), ref.totals[k].aborted.value());
  }
}

/// The water-filling solver as it stood before bottlenecks were picked by
/// scanning, kept as an oracle. It orders flows by id and real arcs by
/// global index, gives every capped flow a virtual arc of capacity `cap`
/// after all real arcs, lays the flow -> arc incidence out as a CSR, and
/// pops each round's bottleneck off a lazy min-heap of (share, local arc).
/// It solves every active flow at once; max-min decomposes exactly over
/// components, so the engine's rates must equal its rates bit for bit.
std::map<kn::FlowId, double> previous_solver_rates(const kn::Network& net) {
  struct ActiveFlow {
    kn::FlowId id;
    std::vector<kn::Arc> path;
    double cap;
  };
  std::vector<ActiveFlow> flows;  // visit order is id order
  net.visit_active_flows(
      [&flows](const kn::Flow& f) { flows.push_back({f.id, f.path, f.rate_cap_bps}); });
  const kn::Topology& topo = net.topology();
  const std::size_t nf = flows.size();

  std::vector<std::uint32_t> local_arcs;
  for (const ActiveFlow& f : flows) {
    for (const kn::Arc arc : f.path) local_arcs.push_back(arc.index());
  }
  std::sort(local_arcs.begin(), local_arcs.end());
  local_arcs.erase(std::unique(local_arcs.begin(), local_arcs.end()), local_arcs.end());
  const std::size_t n_real = local_arcs.size();
  std::vector<std::uint32_t> arc_local_idx(topo.num_arcs(), 0);
  for (std::size_t li = 0; li < n_real; ++li) {
    arc_local_idx[local_arcs[li]] = static_cast<std::uint32_t>(li);
  }

  // CSR of flow -> local arcs (path arcs, then the virtual cap arc if any),
  // and each real arc's members as flow indices.
  std::vector<std::uint32_t> flow_arc_off(nf + 1, 0);
  std::size_t n_virtual = 0;
  for (std::size_t fi = 0; fi < nf; ++fi) {
    const bool capped = std::isfinite(flows[fi].cap);
    flow_arc_off[fi + 1] = flow_arc_off[fi] + static_cast<std::uint32_t>(flows[fi].path.size()) +
                           (capped ? 1u : 0u);
    if (capped) ++n_virtual;
  }
  const std::size_t n_arcs = n_real + n_virtual;
  std::vector<std::uint32_t> flow_arcs(flow_arc_off[nf], 0);
  std::vector<double> residual(n_arcs, 0.0);
  std::vector<std::uint32_t> unfrozen(n_arcs, 0);
  std::vector<std::uint32_t> virtual_member(n_virtual, 0);
  std::vector<std::vector<std::uint32_t>> members(n_real);
  for (std::size_t li = 0; li < n_real; ++li) {
    residual[li] = topo.link(local_arcs[li] / 2).capacity.bps();
  }
  std::size_t next_virtual = n_real;
  for (std::size_t fi = 0; fi < nf; ++fi) {
    std::uint32_t w = flow_arc_off[fi];
    for (const kn::Arc arc : flows[fi].path) {
      const std::uint32_t li = arc_local_idx[arc.index()];
      flow_arcs[w++] = li;
      ++unfrozen[li];
      members[li].push_back(static_cast<std::uint32_t>(fi));
    }
    if (std::isfinite(flows[fi].cap)) {
      residual[next_virtual] = flows[fi].cap;
      unfrozen[next_virtual] = 1;
      virtual_member[next_virtual - n_real] = static_cast<std::uint32_t>(fi);
      flow_arcs[w++] = static_cast<std::uint32_t>(next_virtual);
      ++next_virtual;
    }
  }

  const auto arc_share = [&](std::uint32_t li) {
    return std::max(0.0, residual[li]) / static_cast<double>(unfrozen[li]);
  };
  using ShareEntry = std::pair<double, std::uint32_t>;
  const auto later = [](const ShareEntry& a, const ShareEntry& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second > b.second;
  };
  std::vector<ShareEntry> share_heap;
  for (std::uint32_t li = 0; li < n_arcs; ++li) {
    if (unfrozen[li] > 0) share_heap.emplace_back(arc_share(li), li);
  }
  std::make_heap(share_heap.begin(), share_heap.end(), later);

  std::vector<std::uint8_t> frozen(nf, 0);
  std::vector<double> rate(nf, 0.0);
  std::vector<std::uint64_t> arc_round(n_arcs, 0);
  std::uint64_t round = 0;
  std::vector<std::uint32_t> touched;
  std::size_t remaining_flows = nf;
  while (remaining_flows > 0) {
    if (share_heap.empty()) {
      ADD_FAILURE() << "share heap ran dry with " << remaining_flows << " flows unfrozen";
      break;
    }
    std::pop_heap(share_heap.begin(), share_heap.end(), later);
    const auto [share, li] = share_heap.back();
    share_heap.pop_back();
    if (unfrozen[li] == 0 || share != arc_share(li)) continue;  // stale entry
    ++round;
    touched.clear();
    const auto freeze = [&](std::uint32_t fi) {
      if (frozen[fi]) return;
      frozen[fi] = 1;
      --remaining_flows;
      rate[fi] = share;
      for (std::uint32_t k = flow_arc_off[fi]; k < flow_arc_off[fi + 1]; ++k) {
        const std::uint32_t lj = flow_arcs[k];
        residual[lj] -= share;
        --unfrozen[lj];
        if (arc_round[lj] != round) {
          arc_round[lj] = round;
          touched.push_back(lj);
        }
      }
    };
    if (li < n_real) {
      for (const std::uint32_t fi : members[li]) freeze(fi);
    } else {
      freeze(virtual_member[li - n_real]);
    }
    for (const std::uint32_t lj : touched) {
      if (unfrozen[lj] > 0) {
        share_heap.emplace_back(arc_share(lj), lj);
        std::push_heap(share_heap.begin(), share_heap.end(), later);
      }
    }
  }

  std::map<kn::FlowId, double> rates;
  for (std::size_t fi = 0; fi < nf; ++fi) rates[flows[fi].id] = rate[fi];
  return rates;
}

}  // namespace

// 60 seeded scenarios x 5 topologies, every one with faults: the core
// differential sweep the acceptance criteria call for.
TEST(SchedulerDifferential, SeedSweptScenariosMatchBitExactly) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const RunResult inc = run_scenario_mode(seed, /*reference=*/false);
    const RunResult ref = run_scenario_mode(seed, /*reference=*/true);
    expect_identical(inc, ref, seed);
  }
}

// Dense single-component shapes: the incremental solves cover nearly the
// whole active set there, as the reference sweeps do, while the sparse seed
// sweep above has incremental solves of small components.
TEST(SchedulerDifferential, DenseSingleComponentMatchesBitExactly) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const RunResult inc = run_dense_mode(seed, /*reference=*/false);
    const RunResult ref = run_dense_mode(seed, /*reference=*/true);
    expect_identical(inc, ref, seed);
    // The shape really is one component: the incremental solves visit
    // nearly every live flow, as the reference sweeps do.
    EXPECT_EQ(inc.scheduler.reshares, ref.scheduler.reshares);
    EXPECT_GE(10 * inc.scheduler.flows_visited, 9 * ref.scheduler.flows_visited)
        << "seed " << seed;
  }
}

// The incremental scheduler must actually BE incremental: on rack-confined
// traffic (disjoint sharing components) it touches far fewer links per
// reshare than the reference full sweeps.
TEST(SchedulerDifferential, IncrementalTouchesFewerLinks) {
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");  // pin the mode via NetworkOptions
  const auto run_mode = [](bool reference) {
    ks::Simulator sim;
    kn::NetworkOptions opts;
    opts.model_latency = false;
    opts.reference_scheduler = reference;
    kn::Network net(sim, kn::make_rack_tree(6, 6, 1e9, 10e9, 1e-4), opts);
    const auto by_rack = net.topology().hosts_by_rack();
    ku::Rng rng(99);
    for (const auto& [rack, members] : by_rack) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = 0; j < members.size(); ++j) {
          if (i == j) continue;
          const double start = rng.uniform(0.0, 1.0);
          sim.schedule_at(start, [&net, src = members[i], dst = members[j]] {
            net.start_flow(src, dst, ku::Bytes(2e6), {}, nullptr);
          });
        }
      }
    }
    sim.run();
    return net.scheduler_stats();
  };
  const auto inc = run_mode(false);
  const auto ref = run_mode(true);
  EXPECT_EQ(inc.reshares, ref.reshares);  // same event sequence
  EXPECT_GT(inc.reshares, 0u);
  // Rack-local components: each solve should only visit one rack's arcs.
  EXPECT_LT(inc.links_per_reshare() * 3.0, ref.links_per_reshare());
}

// Oversubscribed fat-tree shapes at differential fidelity: k=4 and k=8
// fabrics with 2:1 and 4:1 thinned uplinks, every seed carrying the full
// seed-derived fault plan (link degradations with restores, node-down
// windows with active-flow aborts, targeted aborts). Thinned uplinks shift
// the bottleneck from access links into the fabric — the regime the scale
// scenarios run in — and both scheduler modes must still agree bit-exactly.
TEST(SchedulerDifferential, OversubscribedFatTreesMatchBitExactly) {
  const struct Shape {
    std::size_t k;
    double oversubscription;
  } shapes[] = {{4, 4.0}, {8, 2.0}, {8, 4.0}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE("fat tree k=" + std::to_string(shape.k) + " oversub " +
                 std::to_string(shape.oversubscription));
    const auto topology = kn::make_fat_tree(shape.k, 1e9, 1e-4, shape.oversubscription);
    // Seeds span both latency modes (seed % 3) and all fault kinds.
    for (const std::uint64_t seed : {101ull, 102ull, 103ull, 110ull, 117ull}) {
      const RunResult inc = run_mode_on(topology, seed, /*reference=*/false);
      const RunResult ref = run_mode_on(topology, seed, /*reference=*/true);
      expect_identical(inc, ref, seed);
    }
  }
}

// Link-visit ratio gate on the oversubscribed fabric: rack-confined traffic
// forms per-edge-switch sharing components, so the incremental scheduler
// must visit a small corner of the fat tree per reshare while the reference
// sweeps all of it. Guards against the columnar arena rewrite silently
// degrading the frontier into full recomputes.
TEST(SchedulerDifferential, OversubscribedFatTreeLinkVisitRatio) {
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");  // pin the mode via NetworkOptions
  const auto run_mode = [](bool reference) {
    ks::Simulator sim;
    kn::NetworkOptions opts;
    opts.model_latency = false;
    opts.reference_scheduler = reference;
    kn::Network net(sim, kn::make_fat_tree(8, 1e9, 1e-4, /*oversubscription=*/4.0), opts);
    const auto by_rack = net.topology().hosts_by_rack();
    ku::Rng rng(7);
    for (const auto& [rack, members] : by_rack) {
      for (std::size_t i = 0; i < members.size(); ++i) {
        for (std::size_t j = 0; j < members.size(); ++j) {
          if (i == j) continue;
          const double start = rng.uniform(0.0, 1.0);
          sim.schedule_at(start, [&net, src = members[i], dst = members[j]] {
            net.start_flow(src, dst, ku::Bytes(4e6), {}, nullptr);
          });
        }
      }
    }
    sim.run();
    return net.scheduler_stats();
  };
  const auto inc = run_mode(false);
  const auto ref = run_mode(true);
  EXPECT_EQ(inc.reshares, ref.reshares);  // same event sequence
  EXPECT_GT(inc.reshares, 0u);
  // A k=8 fat tree has 256 fabric arcs; a rack component touches ~8. Demand
  // only a 3x margin so the gate stays robust to routing changes.
  EXPECT_LT(inc.links_per_reshare() * 3.0, ref.links_per_reshare());
}

// Whole-toolchain differential: a faulted Hadoop scenario through
// run_scenario twice, flipping the KEDDAH_REFERENCE_SCHEDULER environment
// switch. Job results, capture, and FaultStats must agree exactly.
TEST(SchedulerDifferential, ScenarioPipelineMatchesUnderEnvSwitch) {
  const auto spec = kc::parse_scenario(ku::Json::parse(R"({
    "seed": 17,
    "cluster": { "racks": 2, "hosts_per_rack": 4, "block_size": "32MB", "replication": 2 },
    "jobs": [
      { "workload": "sort", "input": "96MB", "reducers": 2 },
      { "workload": "grep", "input": "64MB", "submit_at": 2.0 }
    ],
    "faults": [
      { "kind": "outage", "worker": 3, "at": 4.0, "duration": 6.0 },
      { "kind": "degrade_link", "worker": 5, "at": 2.0, "duration": 10.0, "factor": 0.1 }
    ]
  })"));

  const auto run_with_env = [&spec](const char* value) {
    ::setenv("KEDDAH_REFERENCE_SCHEDULER", value, 1);
    auto outcome = kc::run_scenario(spec);
    ::unsetenv("KEDDAH_REFERENCE_SCHEDULER");
    return outcome;
  };
  const auto inc = run_with_env("0");  // "0" keeps the incremental default
  const auto ref = run_with_env("1");

  ASSERT_EQ(inc.results.size(), ref.results.size());
  for (std::size_t i = 0; i < inc.results.size(); ++i) {
    EXPECT_EQ(inc.results[i].job_name, ref.results[i].job_name);
    EXPECT_EQ(inc.results[i].submit_time, ref.results[i].submit_time);
    EXPECT_EQ(inc.results[i].end_time, ref.results[i].end_time);
    EXPECT_EQ(inc.results[i].output_bytes, ref.results[i].output_bytes);
  }
  ASSERT_EQ(inc.trace.size(), ref.trace.size());
  for (std::size_t i = 0; i < inc.trace.size(); ++i) {
    EXPECT_EQ(inc.trace[i].start, ref.trace[i].start);
    EXPECT_EQ(inc.trace[i].end, ref.trace[i].end);
    EXPECT_EQ(inc.trace[i].bytes, ref.trace[i].bytes);
  }
  EXPECT_EQ(inc.faults.crashes, ref.faults.crashes);
  EXPECT_EQ(inc.faults.outages, ref.faults.outages);
  EXPECT_EQ(inc.faults.link_degradations, ref.faults.link_degradations);
  EXPECT_EQ(inc.faults.aborted_flows, ref.faults.aborted_flows);
  EXPECT_EQ(inc.faults.aborted_bytes.value(), ref.faults.aborted_bytes.value());
  EXPECT_EQ(inc.faults.fetch_retries, ref.faults.fetch_retries);
  EXPECT_EQ(inc.faults.map_reruns, ref.faults.map_reruns);
  EXPECT_EQ(inc.rereplications, ref.rereplications);
  // The env var actually flipped the mode: the reference run's full sweeps
  // touch at least as many links per reshare.
  EXPECT_GE(ref.scheduler.links_per_reshare(), inc.scheduler.links_per_reshare());
}

// The previous solver as the oracle (previous_solver_rates above): after
// every simulator event, in both modes, every active flow's rate must equal
// the old water-filling's rate for the same active set, bit for bit. A
// third of the flows are capped at 1/k of a link, where the water level
// lands, so cap rounds tie with real bottlenecks; link degradations and
// aborts move the level mid-run. The differential tests above compare the
// two modes of one solver, so this is what pins the solver's tie order.
TEST(SchedulerDifferential, RatesMatchPreviousSolverAfterEveryEvent) {
  unsetenv("KEDDAH_REFERENCE_SCHEDULER");  // pin the mode via NetworkOptions
  const struct Shape {
    const char* name;
    kn::Topology topology;
  } shapes[] = {{"rack tree 3x4", kn::make_rack_tree(3, 4, 1e9, 10e9, 1e-4)},
                {"oversubscribed 4x4", kn::make_rack_tree(4, 4, 1e9, 1e9, 1e-4)},
                {"fat tree k=4", kn::make_fat_tree(4, 1e9, 1e-4)}};
  for (const Shape& shape : shapes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      for (const bool reference : {false, true}) {
        SCOPED_TRACE(std::string(shape.name) + " seed " + std::to_string(seed) +
                     (reference ? " reference" : " incremental"));
        ks::Simulator sim;
        kn::NetworkOptions opts;
        opts.model_latency = (seed % 2 == 0);
        opts.reference_scheduler = reference;
        kn::Network net(sim, shape.topology, opts);
        const auto hosts = net.topology().hosts();
        ku::Rng rng(seed);
        const std::size_t num_flows = 150;
        for (std::size_t i = 0; i < num_flows; ++i) {
          const auto src = hosts[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
          auto dst = hosts[static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1))];
          if (dst == src) dst = hosts[(static_cast<std::size_t>(dst) + 1) % hosts.size()];
          const double bytes = std::pow(10.0, rng.uniform(4.5, 7.0));
          const double cap =
              rng.chance(0.33) ? 1e9 / static_cast<double>(rng.uniform_int(2, 16)) : 0.0;
          sim.schedule_at(rng.uniform(0.0, 1.0), [&net, src, dst, bytes, cap] {
            net.start_flow(src, dst, ku::Bytes(bytes), {}, nullptr, ku::Rate::bps(cap));
          });
        }
        for (int i = 0; i < 3; ++i) {
          const auto link = static_cast<kn::LinkId>(
              rng.uniform_int(0, static_cast<std::int64_t>(net.topology().num_links()) - 1));
          const double at = rng.uniform(0.1, 1.0);
          sim.schedule_at(at, [&net, link] {
            net.set_link_capacity(link, net.topology().link(link).capacity * 0.5);
          });
          sim.schedule_at(at + 0.5, [&net, link] {
            net.set_link_capacity(link, net.topology().link(link).capacity * 2.0);
          });
          const auto victim =
              static_cast<kn::FlowId>(rng.uniform_int(1, static_cast<std::int64_t>(num_flows)));
          sim.schedule_at(rng.uniform(0.1, 1.5), [&net, victim] { net.abort_flow(victim); });
        }
        std::size_t steps = 0;
        std::size_t compared = 0;
        while (sim.step()) {
          ++steps;
          const auto expected = previous_solver_rates(net);
          net.visit_active_flows([&](const kn::Flow& f) {
            ++compared;
            const auto it = expected.find(f.id);
            ASSERT_NE(it, expected.end());
            EXPECT_EQ(f.rate_bps, it->second) << "flow " << f.id << " after event " << steps;
          });
          if (HasFailure()) return;  // one detailed failure beats thousands
        }
        EXPECT_GT(compared, num_flows) << "too few rates compared";
      }
    }
  }
}

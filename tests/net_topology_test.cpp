// Unit tests for topology construction, routing, ECMP, and the builders.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.h"

namespace kn = keddah::net;
namespace ku = keddah::util;

namespace {

/// Reference router, kept as an oracle: one full BFS per destination and a
/// materialized equal-cost candidate list at every hop. The production
/// router must agree with it arc for arc.
class ReferenceRouter {
 public:
  explicit ReferenceRouter(const kn::Topology& t) : topo_(t), adjacency_(t.num_nodes()) {
    // Link-creation order reproduces Topology's adjacency order exactly.
    for (kn::LinkId id = 0; id < t.num_links(); ++id) {
      const kn::Link& l = t.link(id);
      adjacency_[l.a].emplace_back(l.b, kn::Arc{id, 0});
      adjacency_[l.b].emplace_back(l.a, kn::Arc{id, 1});
    }
  }

  int distance(kn::NodeId src, kn::NodeId dst) { return dist_to(dst)[src]; }

  std::vector<kn::Arc> route(kn::NodeId src, kn::NodeId dst, std::uint64_t flow_key) {
    std::vector<kn::Arc> path;
    if (src == dst) return path;
    const std::vector<int>& dist = dist_to(dst);
    if (dist[src] < 0) {
      throw std::runtime_error("topology: no path " + topo_.node(src).name + " -> " +
                               topo_.node(dst).name);
    }
    kn::NodeId here = src;
    std::uint64_t hop = 0;
    while (here != dst) {
      std::vector<std::pair<kn::NodeId, kn::Arc>> candidates;
      for (const auto& [v, arc] : adjacency_[here]) {
        if (dist[v] == dist[here] - 1) candidates.emplace_back(v, arc);
      }
      const std::uint64_t h = mix(flow_key ^ mix((static_cast<std::uint64_t>(src) << 40) ^
                                                 (static_cast<std::uint64_t>(dst) << 20) ^ hop));
      const auto& [next, arc] = candidates.at(h % candidates.size());
      path.push_back(arc);
      here = next;
      ++hop;
    }
    return path;
  }

 private:
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
  }

  const std::vector<int>& dist_to(kn::NodeId dst) {
    auto [it, fresh] = rows_.try_emplace(dst);
    if (!fresh) return it->second;
    std::vector<int>& dist = it->second;
    dist.assign(topo_.num_nodes(), -1);
    std::vector<kn::NodeId> frontier{dst};
    dist[dst] = 0;
    for (std::size_t i = 0; i < frontier.size(); ++i) {
      const kn::NodeId u = frontier[i];
      for (const auto& [v, arc] : adjacency_[u]) {
        (void)arc;
        if (dist[v] < 0) {
          dist[v] = dist[u] + 1;
          frontier.push_back(v);
        }
      }
    }
    return dist;
  }

  const kn::Topology& topo_;
  std::vector<std::vector<std::pair<kn::NodeId, kn::Arc>>> adjacency_;
  std::map<kn::NodeId, std::vector<int>> rows_;
};

/// Routes every ordered node pair (hosts and switches alike) under several
/// flow keys through both routers and requires identical arcs, identical
/// distances and identical "no path" errors.
void expect_routes_match_reference(const kn::Topology& t, const std::string& label) {
  SCOPED_TRACE(label);
  ReferenceRouter ref(t);
  const std::uint64_t keys[] = {0, 1, 77, 0x9e3779b97f4a7c15ULL, 123456789};
  std::size_t mismatches = 0;
  for (std::uint32_t s = 0; s < t.num_nodes(); ++s) {
    for (std::uint32_t d = 0; d < t.num_nodes(); ++d) {
      const kn::NodeId src(s);
      const kn::NodeId dst(d);
      if (t.distance(src, dst) != ref.distance(src, dst) && ++mismatches <= 3) {
        ADD_FAILURE() << "distance " << t.node(src).name << " -> " << t.node(dst).name;
      }
      for (const std::uint64_t key : keys) {
        std::vector<kn::Arc> got;
        std::vector<kn::Arc> want;
        std::string got_error = "(none)";
        std::string want_error = "(none)";
        try {
          got = t.route(src, dst, key);
        } catch (const std::runtime_error& e) {
          got_error = e.what();
        }
        try {
          want = ref.route(src, dst, key);
        } catch (const std::runtime_error& e) {
          want_error = e.what();
        }
        if ((got != want || got_error != want_error) && ++mismatches <= 3) {
          ADD_FAILURE() << t.node(src).name << " -> " << t.node(dst).name << " key " << key
                        << ": " << got.size() << " arcs vs " << want.size() << " reference ("
                        << got_error << " / " << want_error << ")";
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace

TEST(Topology, AddAndLookupNodes) {
  kn::Topology t;
  const auto h0 = t.add_host("h0", 0);
  const auto sw = t.add_switch("sw");
  EXPECT_EQ(t.num_nodes(), 2u);
  EXPECT_EQ(t.find("h0"), h0);
  EXPECT_EQ(t.find("sw"), sw);
  EXPECT_EQ(t.find("nope"), kn::kInvalidNode);
  EXPECT_FALSE(t.node(h0).is_switch);
  EXPECT_TRUE(t.node(sw).is_switch);
}

TEST(Topology, DuplicateNameThrows) {
  kn::Topology t;
  t.add_host("x", 0);
  EXPECT_THROW(t.add_host("x", 1), std::invalid_argument);
}

TEST(Topology, BadLinksThrow) {
  kn::Topology t;
  const auto a = t.add_host("a", 0);
  EXPECT_THROW(t.add_link(a, a, ku::Rate::bps(1e9), ku::Seconds(0.0)), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, kn::NodeId(99), ku::Rate::bps(1e9), ku::Seconds(0.0)), std::out_of_range);
  const auto b = t.add_host("b", 0);
  EXPECT_THROW(t.add_link(a, b, ku::Rate::bps(0.0), ku::Seconds(0.0)), std::invalid_argument);
}

// The max-min solver compares shares exactly, and NaN compares false with
// everything, so a non-finite capacity is rejected where it enters.
TEST(Topology, NonFiniteCapacityThrows) {
  kn::Topology t;
  const auto a = t.add_host("a", 0);
  const auto b = t.add_host("b", 0);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(t.add_link(a, b, ku::Rate::bps(inf), ku::Seconds(0.0)), std::invalid_argument);
  const auto link = t.add_link(a, b, ku::Rate::bps(1e9), ku::Seconds(0.0));
  EXPECT_THROW(t.set_link_capacity(link, ku::Rate::bps(inf)), std::invalid_argument);
  EXPECT_EQ(t.link(link).capacity.bps(), 1e9);
  // KEDDAH_CHECK builds reject a NaN rate when the Rate is constructed.
  if constexpr (!ku::kAuditEnabled) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(t.add_link(a, b, ku::Rate::bps(nan), ku::Seconds(0.0)), std::invalid_argument);
    EXPECT_THROW(t.set_link_capacity(link, ku::Rate::bps(nan)), std::invalid_argument);
  }
  EXPECT_EQ(t.num_links(), 1u);
}

TEST(Topology, RouteThroughSwitch) {
  kn::Topology t = kn::make_star(4, 1e9, 1e-4);
  const auto h0 = t.find("h0");
  const auto h1 = t.find("h1");
  const auto path = t.route(h0, h1, 1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(t.arc_from(path[0]), h0);
  EXPECT_EQ(t.arc_to(path[1]), h1);
  EXPECT_DOUBLE_EQ(t.path_latency(path).value(), 2e-4);
}

TEST(Topology, LoopbackRouteIsEmpty) {
  kn::Topology t = kn::make_star(2, 1e9, 1e-4);
  EXPECT_TRUE(t.route(t.find("h0"), t.find("h0"), 1).empty());
}

TEST(Topology, UnreachableThrows) {
  kn::Topology t;
  const auto a = t.add_host("a", 0);
  const auto b = t.add_host("b", 1);
  EXPECT_THROW(t.route(a, b, 1), std::runtime_error);
  EXPECT_EQ(t.distance(a, b), -1);
}

TEST(Topology, DistanceCounts) {
  kn::Topology t = kn::make_rack_tree(2, 2, 1e9, 1e10, 1e-4);
  const auto h0 = t.find("h0");
  const auto h1 = t.find("h1");  // same rack
  const auto h2 = t.find("h2");  // other rack
  EXPECT_EQ(t.distance(h0, h0), 0);
  EXPECT_EQ(t.distance(h0, h1), 2);   // h0 -> tor -> h1
  EXPECT_EQ(t.distance(h0, h2), 4);   // h0 -> tor0 -> core -> tor1 -> h2
}

TEST(Topology, SameRack) {
  kn::Topology t = kn::make_rack_tree(2, 2, 1e9, 1e10, 1e-4);
  EXPECT_TRUE(t.same_rack(t.find("h0"), t.find("h1")));
  EXPECT_FALSE(t.same_rack(t.find("h0"), t.find("h2")));
  EXPECT_FALSE(t.same_rack(t.find("h0"), t.find("tor0")));
}

TEST(Topology, HostsByRack) {
  kn::Topology t = kn::make_rack_tree(3, 4, 1e9, 1e10, 1e-4);
  const auto racks = t.hosts_by_rack();
  ASSERT_EQ(racks.size(), 3u);
  for (const auto& [rack, hosts] : racks) {
    (void)rack;
    EXPECT_EQ(hosts.size(), 4u);
  }
  EXPECT_EQ(t.hosts().size(), 12u);
}

TEST(Topology, StarShape) {
  kn::Topology t = kn::make_star(8, 1e9, 1e-4);
  EXPECT_EQ(t.hosts().size(), 8u);
  EXPECT_EQ(t.num_links(), 8u);
}

TEST(Topology, RackTreeShape) {
  kn::Topology t = kn::make_rack_tree(4, 4, 1e9, 1e10, 1e-4);
  EXPECT_EQ(t.hosts().size(), 16u);
  // 16 access + 4 uplinks.
  EXPECT_EQ(t.num_links(), 20u);
  // Uplink capacity is the core rate.
  const auto tor0 = t.find("tor0");
  const auto core = t.find("core");
  ASSERT_NE(tor0, kn::kInvalidNode);
  ASSERT_NE(core, kn::kInvalidNode);
}

TEST(Topology, FatTreeShape) {
  const std::size_t k = 4;
  kn::Topology t = kn::make_fat_tree(k, 1e10, 1e-5);
  EXPECT_EQ(t.hosts().size(), k * k * k / 4);            // 16 hosts
  const std::size_t switches = t.num_nodes() - k * k * k / 4;
  EXPECT_EQ(switches, k * k + k * k / 4);                // 20 switches
  // Links: hosts (16) + edge-agg (k pods * (k/2)^2 = 16) + agg-core (16).
  EXPECT_EQ(t.num_links(), 48u);
}

TEST(Topology, FatTreeOddKThrows) {
  EXPECT_THROW(kn::make_fat_tree(3, 1e9, 0.0), std::invalid_argument);
}

TEST(Topology, FatTreeAllHostsReachable) {
  kn::Topology t = kn::make_fat_tree(4, 1e10, 1e-5);
  const auto hosts = t.hosts();
  for (const auto a : hosts) {
    for (const auto b : hosts) {
      if (a == b) continue;
      EXPECT_GE(t.distance(a, b), 2);
      EXPECT_LE(t.distance(a, b), 6);
    }
  }
}

TEST(Topology, FatTreeEcmpSpreadsFlows) {
  kn::Topology t = kn::make_fat_tree(4, 1e10, 1e-5);
  // Pick two hosts in different pods: many equal-cost core paths exist.
  const auto src = t.find("h0");
  const auto dst = t.find("h15");
  std::set<std::uint32_t> first_hops;
  std::set<std::uint32_t> core_arcs;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const auto path = t.route(src, dst, key);
    ASSERT_EQ(path.size(), 6u);  // host-edge-agg-core-agg-edge-host
    first_hops.insert(path[1].index());
    core_arcs.insert(path[2].index());
    // Path is consistent: arcs chain from src to dst.
    EXPECT_EQ(t.arc_from(path[0]), src);
    for (std::size_t i = 1; i < path.size(); ++i) {
      EXPECT_EQ(t.arc_from(path[i]), t.arc_to(path[i - 1]));
    }
    EXPECT_EQ(t.arc_to(path.back()), dst);
  }
  // ECMP should use more than one aggregation and core choice.
  EXPECT_GT(first_hops.size(), 1u);
  EXPECT_GT(core_arcs.size(), 1u);
}

TEST(Topology, EcmpStablePerKey) {
  kn::Topology t = kn::make_fat_tree(4, 1e10, 1e-5);
  const auto src = t.find("h0");
  const auto dst = t.find("h12");
  const auto p1 = t.route(src, dst, 77);
  const auto p2 = t.route(src, dst, 77);
  ASSERT_EQ(p1.size(), p2.size());
  for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_EQ(p1[i].index(), p2[i].index());
}

TEST(Topology, DumbbellBottleneck) {
  kn::Topology t = kn::make_dumbbell(2, 2, 1e9, 5e8, 1e-4);
  EXPECT_EQ(t.hosts().size(), 4u);
  const auto h0 = t.find("h0");
  const auto h2 = t.find("h2");
  const auto path = t.route(h0, h2, 1);
  ASSERT_EQ(path.size(), 3u);
  // Middle arc is the bottleneck link.
  EXPECT_DOUBLE_EQ(t.link(path[1].link).capacity.bps(), 5e8);
}

TEST(Topology, ArcIndexEncoding) {
  kn::Arc a{3, 0};
  kn::Arc b{3, 1};
  EXPECT_EQ(a.index(), 6u);
  EXPECT_EQ(b.index(), 7u);
  EXPECT_NE(a, b);
}

TEST(Topology, RoutesMatchPerDestinationBfsReference) {
  expect_routes_match_reference(kn::make_star(6, 1e9, 1e-4), "star");
  expect_routes_match_reference(kn::make_rack_tree(3, 4, 1e9, 1e10, 1e-4), "rack tree");
  expect_routes_match_reference(kn::make_dumbbell(3, 2, 1e9, 5e8, 1e-4), "dumbbell");
  expect_routes_match_reference(kn::make_fat_tree(4, 1e10, 1e-5, 4.0), "fat-tree k=4");
  expect_routes_match_reference(kn::make_fat_tree(8, 1e10, 1e-5, 4.0), "fat-tree k=8");
  // k=12: 72 edge switches anchor hosts, so the anchors' rows span two
  // 64-row batches and the aggregation and core rows a third.
  const kn::Topology k12 = kn::make_fat_tree(12, 1e10, 1e-5, 4.0);
  expect_routes_match_reference(k12, "fat-tree k=12");
  {
    // distance() alone on a fresh copy, last node first, so the batches
    // are built in another order and by distance() rather than route().
    SCOPED_TRACE("fat-tree k=12, distance only");
    const kn::Topology fresh = kn::make_fat_tree(12, 1e10, 1e-5, 4.0);
    ReferenceRouter ref(fresh);
    std::size_t mismatches = 0;
    for (std::uint32_t d = static_cast<std::uint32_t>(fresh.num_nodes()); d-- > 0;) {
      for (std::uint32_t s = 0; s < fresh.num_nodes(); ++s) {
        const kn::NodeId src(s);
        const kn::NodeId dst(d);
        if (fresh.distance(src, dst) != ref.distance(src, dst) && ++mismatches <= 3) {
          ADD_FAILURE() << "distance " << fresh.node(src).name << " -> " << fresh.node(dst).name;
        }
      }
    }
    EXPECT_EQ(mismatches, 0u);
  }

  // Unreachable transit nodes inside one batch: two racks with no link
  // between them, an isolated switch, and a switch chain hanging off rack A.
  kn::Topology islands;
  {
    const auto link = [&islands](kn::NodeId a, kn::NodeId b) {
      islands.add_link(a, b, ku::Rate::bps(1e9), ku::Seconds(1e-5));
    };
    const auto tor_a = islands.add_switch("torA");
    const auto lonely = islands.add_switch("lonely");
    const auto tor_b = islands.add_switch("torB");
    const auto chain0 = islands.add_switch("chain0");
    const auto chain1 = islands.add_switch("chain1");
    link(tor_a, chain0);
    link(chain0, chain1);
    (void)lonely;
    for (int i = 0; i < 3; ++i) {
      link(islands.add_host("a" + std::to_string(i), 0), tor_a);
      link(islands.add_host("b" + std::to_string(i), 1), tor_b);
    }
  }
  expect_routes_match_reference(islands, "islands");
  EXPECT_EQ(islands.distance(islands.find("a0"), islands.find("b0")), -1);
  EXPECT_EQ(islands.distance(islands.find("chain1"), islands.find("torB")), -1);
  EXPECT_EQ(islands.distance(islands.find("lonely"), islands.find("a1")), -1);
  EXPECT_EQ(islands.distance(islands.find("chain1"), islands.find("a2")), 3);
  EXPECT_EQ(islands.distance(islands.find("b1"), islands.find("b2")), 2);

  // Hand-built corner cases: a triangle of switches, plain leaf hosts, a
  // host homed on two different switches, a host with two parallel links to
  // one switch, a leaf switch, and an isolated host.
  kn::Topology t;
  const auto link = [&t](kn::NodeId a, kn::NodeId b) {
    t.add_link(a, b, ku::Rate::bps(1e9), ku::Seconds(1e-5));
  };
  const auto s0 = t.add_switch("s0");
  const auto s1 = t.add_switch("s1");
  const auto s2 = t.add_switch("s2");
  const auto stub = t.add_switch("stub");
  const auto h0 = t.add_host("h0", 0);
  const auto h1 = t.add_host("h1", 2);
  const auto dual = t.add_host("dual", 0);
  const auto parallel = t.add_host("parallel", 1);
  const auto isolated = t.add_host("isolated", 3);
  link(s0, s1);
  link(s1, s2);
  link(s2, s0);
  link(stub, s1);
  link(h0, s0);
  link(h1, s2);
  link(dual, s0);
  link(s2, dual);
  link(parallel, s1);
  link(s1, parallel);
  expect_routes_match_reference(t, "corner cases");

  EXPECT_EQ(t.distance(h0, isolated), -1);
  EXPECT_EQ(t.distance(isolated, isolated), 0);
  EXPECT_EQ(t.distance(h0, h1), 3);
  EXPECT_EQ(t.distance(parallel, h0), 3);
  try {
    (void)t.route(h0, isolated, 1);
    ADD_FAILURE() << "route to an isolated host must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "topology: no path h0 -> isolated");
  }
  // The two parallel links into `parallel` are distinct equal-cost arcs, so
  // ECMP uses both across keys.
  std::set<kn::LinkId> last_links;
  for (std::uint64_t key = 0; key < 32; ++key) last_links.insert(t.route(h0, parallel, key).back().link);
  EXPECT_EQ(last_links.size(), 2u);

  // Graphs with no leaves: two hosts wired to each other (each is the other's
  // only neighbour), and a star with a single host.
  kn::Topology pair;
  const auto a = pair.add_host("a", 0);
  const auto b = pair.add_host("b", 0);
  pair.add_link(a, b, ku::Rate::bps(1e9), ku::Seconds(1e-5));
  pair.add_link(b, a, ku::Rate::bps(1e9), ku::Seconds(1e-5));
  expect_routes_match_reference(pair, "two hosts back to back");
  EXPECT_EQ(pair.distance(a, b), 1);
  expect_routes_match_reference(kn::make_star(1, 1e9, 1e-4), "one-host star");

  // Routing, then growing the graph, then routing again: the memoized rows
  // and the leaf/transit split must follow the new links. h0 stops being a
  // leaf once it is dual-homed, and a new switch opens a shorter path.
  kn::Topology grown = kn::make_rack_tree(2, 2, 1e9, 1e10, 1e-4);
  expect_routes_match_reference(grown, "rack tree before add_link");
  EXPECT_EQ(grown.distance(grown.find("h0"), grown.find("h2")), 4);
  grown.add_link(grown.find("h0"), grown.find("tor1"), ku::Rate::bps(1e9), ku::Seconds(1e-5));
  expect_routes_match_reference(grown, "rack tree after add_link");
  EXPECT_EQ(grown.distance(grown.find("h0"), grown.find("h2")), 2);
  const auto bridge = grown.add_switch("bridge");
  grown.add_link(bridge, grown.find("h1"), ku::Rate::bps(1e9), ku::Seconds(1e-5));
  expect_routes_match_reference(grown, "rack tree after add_switch");
  grown.add_link(bridge, grown.find("h3"), ku::Rate::bps(1e9), ku::Seconds(1e-5));
  expect_routes_match_reference(grown, "rack tree with a bridge");
  EXPECT_EQ(grown.distance(grown.find("h1"), grown.find("h3")), 2);

  // Wide ECMP: 100 equal-cost middle switches between two edge switches,
  // more next hops than one routing pass records, so the re-scan picks them.
  kn::Topology wide;
  const auto left = wide.add_switch("left");
  const auto right = wide.add_switch("right");
  for (std::size_t m = 0; m < 100; ++m) {
    const auto mid = wide.add_switch("mid" + std::to_string(m));
    wide.add_link(left, mid, ku::Rate::bps(1e9), ku::Seconds(1e-5));
    wide.add_link(mid, right, ku::Rate::bps(1e9), ku::Seconds(1e-5));
  }
  for (std::size_t i = 0; i < 4; ++i) {
    const auto h = wide.add_host("h" + std::to_string(i), static_cast<int>(i / 2));
    wide.add_link(h, i < 2 ? left : right, ku::Rate::bps(1e9), ku::Seconds(1e-5));
  }
  expect_routes_match_reference(wide, "wide ECMP");
  std::set<kn::LinkId> middle_links;
  for (std::uint64_t key = 0; key < 2000; ++key) {
    middle_links.insert(wide.route(wide.find("h0"), wide.find("h3"), key)[1].link);
  }
  EXPECT_GT(middle_links.size(), 64u);  // picks beyond the recorded prefix
}

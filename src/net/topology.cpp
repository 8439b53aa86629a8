#include "net/topology.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

#include "util/strings.h"

namespace keddah::net {

namespace {
/// Deterministic 64-bit mix for ECMP next-hop selection.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

NodeId Topology::add_node(const std::string& name, int rack, bool is_switch) {
  if (by_name_.count(name) != 0) throw std::invalid_argument("topology: duplicate node " + name);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, name, rack, is_switch});
  adjacency_.emplace_back();
  by_name_[name] = id;
  return id;
}

NodeId Topology::add_host(const std::string& name, int rack) {
  return add_node(name, rack, /*is_switch=*/false);
}

NodeId Topology::add_switch(const std::string& name) {
  return add_node(name, /*rack=*/-1, /*is_switch=*/true);
}

LinkId Topology::add_link(NodeId a, NodeId b, util::Rate capacity, util::Seconds latency) {
  if (a >= nodes_.size() || b >= nodes_.size()) throw std::out_of_range("topology: bad node id");
  if (a == b) throw std::invalid_argument("topology: self-link");
  if (capacity.bps() <= 0.0) throw std::invalid_argument("topology: non-positive capacity");
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, a, b, capacity, latency});
  adjacency_[a].emplace_back(b, Arc{id, 0});
  adjacency_[b].emplace_back(a, Arc{id, 1});
  row_slot_.clear();  // invalidate memoized BFS rows
  return id;
}

bool Topology::set_link_capacity(LinkId id, util::Rate capacity) {
  if (id >= links_.size()) throw std::out_of_range("topology: bad link id");
  if (capacity.bps() <= 0.0) throw std::invalid_argument("topology: non-positive capacity");
  if (links_[id].capacity == capacity) return false;
  links_[id].capacity = capacity;
  return true;
}

std::vector<LinkId> Topology::links_at(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("topology: bad node id");
  std::vector<LinkId> out;
  for (const auto& [neighbor, arc] : adjacency_[id]) {
    (void)neighbor;
    if (arc.dir == 0) out.push_back(arc.link);  // node is endpoint a
  }
  for (const auto& link : links_) {
    if (link.b == id) out.push_back(link.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

NodeId Topology::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidNode : it->second;
}

std::vector<NodeId> Topology::hosts() const {
  std::vector<NodeId> out;
  for (const auto& n : nodes_) {
    if (!n.is_switch) out.push_back(n.id);
  }
  return out;
}

std::map<int, std::vector<NodeId>> Topology::hosts_by_rack() const {
  std::map<int, std::vector<NodeId>> out;
  for (const auto& n : nodes_) {
    if (!n.is_switch) out[n.rack].push_back(n.id);
  }
  return out;
}

Topology::DistanceTo Topology::dist_to(NodeId dst) const {
  const auto& adj = adjacency_[dst];
  NodeId anchor = adj.empty() ? dst : adj.front().first;
  for (const auto& [v, arc] : adj) {
    (void)arc;
    if (v != anchor) {
      anchor = dst;
      break;
    }
  }
  return DistanceTo{row(anchor), dst, anchor == dst ? 0 : 1};
}

const std::int16_t* Topology::row(NodeId anchor) const {
  const std::size_t n = nodes_.size();
  if (row_slot_.size() != n) {  // first query since the graph changed
    row_slot_.assign(n, -1);
    rows_.clear();
  }
  std::int32_t& slot = row_slot_[anchor];
  if (slot >= 0) return rows_[static_cast<std::size_t>(slot)].data();
  slot = static_cast<std::int32_t>(rows_.size());
  std::vector<std::int16_t>& dist = rows_.emplace_back(n, -1);
  std::vector<NodeId> frontier;
  frontier.reserve(n);
  dist[anchor] = 0;
  frontier.push_back(anchor);
  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const NodeId u = frontier[i];
    if (dist[u] == std::numeric_limits<std::int16_t>::max()) {
      throw std::runtime_error("topology: diameter overflows the int16 distance cache");
    }
    for (const auto& [v, arc] : adjacency_[u]) {
      (void)arc;
      if (dist[v] < 0) {
        dist[v] = static_cast<std::int16_t>(dist[u] + 1);
        frontier.push_back(v);
      }
    }
  }
  return dist.data();
}

std::vector<Arc> Topology::route(NodeId src, NodeId dst, std::uint64_t flow_key) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) throw std::out_of_range("topology: bad node id");
  std::vector<Arc> path;
  if (src == dst) return path;  // loopback: no network arcs
  const DistanceTo dist = dist_to(dst);
  const int hops = dist(src);
  if (hops < 0) {
    throw std::runtime_error("topology: no path " + nodes_[src].name + " -> " + nodes_[dst].name);
  }
  path.reserve(static_cast<std::size_t>(hops));
  NodeId here = src;
  for (int hop = 0; hop < hops; ++hop) {
    // Equal-cost next hops are the neighbours one hop closer. Count them,
    // then take the (h % count)-th in adjacency order: the arc a
    // materialized candidate list would yield, without building one.
    const int closer = hops - hop - 1;
    const auto& adj = adjacency_[here];
    std::size_t count = 0;
    for (const auto& [v, arc] : adj) {
      (void)arc;
      if (dist(v) == closer) ++count;
    }
    assert(count > 0);
    // Hash-based per-flow ECMP: stable for one flow, spread across flows.
    const std::uint64_t h =
        mix(flow_key ^ mix((static_cast<std::uint64_t>(src) << 40) ^
                           (static_cast<std::uint64_t>(dst) << 20) ^
                           static_cast<std::uint64_t>(hop)));
    std::size_t skip = h % count;
    for (const auto& [v, arc] : adj) {
      if (dist(v) != closer || skip-- != 0) continue;
      path.push_back(arc);
      here = v;
      break;
    }
  }
  return path;
}

util::Seconds Topology::path_latency(const std::vector<Arc>& path) const {
  util::Seconds total;
  for (const Arc arc : path) total += link(arc.link).latency;
  return total;
}

int Topology::distance(NodeId src, NodeId dst) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) throw std::out_of_range("topology: bad node id");
  return dist_to(dst)(src);
}

bool Topology::same_rack(NodeId a, NodeId b) const {
  const Node& na = node(a);
  const Node& nb = node(b);
  return !na.is_switch && !nb.is_switch && na.rack == nb.rack;
}

NodeId Topology::arc_from(Arc arc) const {
  const Link& l = links_.at(arc.link);
  return arc.dir == 0 ? l.a : l.b;
}

NodeId Topology::arc_to(Arc arc) const {
  const Link& l = links_.at(arc.link);
  return arc.dir == 0 ? l.b : l.a;
}

Topology make_star(std::size_t num_hosts, double access_bps, double latency_s) {
  Topology topo;
  const NodeId sw = topo.add_switch("sw0");
  for (std::size_t i = 0; i < num_hosts; ++i) {
    const NodeId h = topo.add_host(util::format("h%zu", i), /*rack=*/0);
    topo.add_link(h, sw, util::Rate::bps(access_bps), util::Seconds(latency_s));
  }
  return topo;
}

Topology make_rack_tree(std::size_t racks, std::size_t hosts_per_rack, double access_bps,
                        double core_bps, double latency_s) {
  Topology topo;
  const NodeId core = topo.add_switch("core");
  std::size_t host_index = 0;
  for (std::size_t r = 0; r < racks; ++r) {
    const NodeId tor = topo.add_switch(util::format("tor%zu", r));
    topo.add_link(tor, core, util::Rate::bps(core_bps), util::Seconds(latency_s));
    for (std::size_t i = 0; i < hosts_per_rack; ++i) {
      const NodeId h = topo.add_host(util::format("h%zu", host_index++), static_cast<int>(r));
      topo.add_link(h, tor, util::Rate::bps(access_bps), util::Seconds(latency_s));
    }
  }
  return topo;
}

Topology make_fat_tree(std::size_t k, double link_bps, double latency_s,
                       double oversubscription) {
  if (k < 2 || k % 2 != 0) throw std::invalid_argument("fat-tree: k must be even and >= 2");
  if (!(oversubscription >= 1.0)) {
    throw std::invalid_argument("fat-tree: oversubscription must be >= 1.0");
  }
  Topology topo;
  const std::size_t half = k / 2;
  const std::size_t num_core = half * half;
  // Thinning every uplink tier by the oversubscription ratio keeps the
  // host access rate at link_bps while shrinking the bisection, which is
  // how oversubscribed Clos fabrics are actually provisioned.
  const double uplink_bps = link_bps / oversubscription;

  std::vector<NodeId> core(num_core);
  for (std::size_t c = 0; c < num_core; ++c) core[c] = topo.add_switch(util::format("core%zu", c));

  std::size_t host_index = 0;
  for (std::size_t pod = 0; pod < k; ++pod) {
    std::vector<NodeId> aggs(half);
    std::vector<NodeId> edges(half);
    for (std::size_t a = 0; a < half; ++a) {
      aggs[a] = topo.add_switch(util::format("agg%zu_%zu", pod, a));
    }
    for (std::size_t e = 0; e < half; ++e) {
      edges[e] = topo.add_switch(util::format("edge%zu_%zu", pod, e));
    }
    // Edge <-> aggregation full bipartite inside the pod.
    for (std::size_t e = 0; e < half; ++e) {
      for (std::size_t a = 0; a < half; ++a) topo.add_link(edges[e], aggs[a], util::Rate::bps(uplink_bps), util::Seconds(latency_s));
    }
    // Aggregation a connects to core switches [a*half, (a+1)*half).
    for (std::size_t a = 0; a < half; ++a) {
      for (std::size_t c = 0; c < half; ++c) {
        topo.add_link(aggs[a], core[a * half + c], util::Rate::bps(uplink_bps), util::Seconds(latency_s));
      }
    }
    // Hosts under each edge switch; rack index = global edge index.
    for (std::size_t e = 0; e < half; ++e) {
      const int rack = static_cast<int>(pod * half + e);
      for (std::size_t i = 0; i < half; ++i) {
        const NodeId h = topo.add_host(util::format("h%zu", host_index++), rack);
        topo.add_link(h, edges[e], util::Rate::bps(link_bps), util::Seconds(latency_s));
      }
    }
  }
  return topo;
}

Topology make_dumbbell(std::size_t left, std::size_t right, double access_bps,
                       double bottleneck_bps, double latency_s) {
  Topology topo;
  const NodeId swl = topo.add_switch("swL");
  const NodeId swr = topo.add_switch("swR");
  topo.add_link(swl, swr, util::Rate::bps(bottleneck_bps), util::Seconds(latency_s));
  std::size_t host_index = 0;
  for (std::size_t i = 0; i < left; ++i) {
    const NodeId h = topo.add_host(util::format("h%zu", host_index++), 0);
    topo.add_link(h, swl, util::Rate::bps(access_bps), util::Seconds(latency_s));
  }
  for (std::size_t i = 0; i < right; ++i) {
    const NodeId h = topo.add_host(util::format("h%zu", host_index++), 1);
    topo.add_link(h, swr, util::Rate::bps(access_bps), util::Seconds(latency_s));
  }
  return topo;
}

}  // namespace keddah::net

#include "net/topology.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/strings.h"

namespace keddah::net {

namespace {
/// Equal-cost candidates one routing pass records; a wider hop (more than
/// this many next hops at one distance) re-scans to find its pick.
constexpr std::size_t kEcmpBuffer = 64;

/// Rows one bit-parallel BFS builds: one per bit of its reach masks.
constexpr std::uint32_t kRowBatch = 64;

/// Deterministic 64-bit mix for ECMP next-hop selection.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// The (h % count)-th of the `count` indices in [begin, end) that
/// `is_candidate` accepts. One pass counts the candidates and records them
/// in a stack buffer; only a hop with more candidates than the buffer holds
/// scans again for its pick.
template <typename Candidate>
std::uint32_t pick_arc(std::uint32_t begin, std::uint32_t end, std::uint64_t h,
                       Candidate is_candidate) {
  std::array<std::uint32_t, kEcmpBuffer> seen;
  std::size_t count = 0;
  for (std::uint32_t e = begin; e < end; ++e) {
    if (!is_candidate(e)) continue;
    if (count < seen.size()) seen[count] = e;
    ++count;
  }
  assert(count > 0);
  std::size_t skip = h % count;
  if (skip < seen.size()) return seen[skip];
  for (std::uint32_t e = begin;; ++e) {
    if (is_candidate(e) && skip-- == 0) return e;
  }
}

/// Rejects a capacity the max-min solver cannot order: zero, negative,
/// infinite or NaN (NaN compares false with every share).
void check_capacity(util::Rate capacity) {
  if (!std::isfinite(capacity.bps()) || capacity.bps() <= 0.0) {
    throw std::invalid_argument("topology: capacity must be finite and > 0");
  }
}
}  // namespace

NodeId Topology::add_node(const std::string& name, int rack, bool is_switch) {
  if (by_name_.count(name) != 0) throw std::invalid_argument("topology: duplicate node " + name);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{id, name, rack, is_switch});
  adjacency_.emplace_back();
  by_name_[name] = id;
  routing_built_ = false;
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
  check_capacity(capacity);
  const LinkId id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{id, a, b, capacity, latency});
  adjacency_[a].emplace_back(b, Arc{id, 0});
  adjacency_[b].emplace_back(a, Arc{id, 1});
  routing_built_ = false;
  return id;
}

bool Topology::set_link_capacity(LinkId id, util::Rate capacity) {
  if (id >= links_.size()) throw std::out_of_range("topology: bad link id");
  check_capacity(capacity);
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

void Topology::build_routing_index() const {
  const std::size_t n = nodes_.size();
  // sole[u]: the one neighbour all of u's links lead to, if there is one.
  std::vector<NodeId> sole(n, kInvalidNode);
  for (std::size_t u = 0; u < n; ++u) {
    const auto& adj = adjacency_[u];
    if (adj.empty()) continue;
    const NodeId first = adj.front().first;
    if (std::all_of(adj.begin(), adj.end(), [first](const auto& e) { return e.first == first; })) {
      sole[u] = first;
    }
  }
  const auto is_leaf = [&sole](std::size_t u) {
    return sole[u] != kInvalidNode && sole[sole[u]] == kInvalidNode;
  };
  // Anchors take the first transit indices, then the other transit nodes,
  // each group in node order.
  std::vector<bool> anchors(n, false);
  for (std::size_t u = 0; u < n; ++u) {
    if (is_leaf(u)) anchors[sole[u]] = true;
  }
  places_.assign(n, Place{0, 0});
  transit_nodes_.clear();
  for (const bool anchor_pass : {true, false}) {
    for (std::size_t u = 0; u < n; ++u) {
      if (is_leaf(u) || anchors[u] != anchor_pass) continue;
      places_[u] = Place{static_cast<std::uint32_t>(transit_nodes_.size()), 0};
      transit_nodes_.push_back(NodeId(static_cast<std::uint32_t>(u)));
    }
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (is_leaf(u)) places_[u] = Place{places_[sole[u]].transit, 1};
  }
  transit_begin_.assign(n + 1, 0);
  transit_arcs_.clear();
  for (std::size_t u = 0; u < n; ++u) {
    transit_begin_[u] = static_cast<std::uint32_t>(transit_arcs_.size());
    for (const auto& [v, arc] : adjacency_[u]) {
      if (places_[v].leaf == 0) transit_arcs_.push_back(TransitArc{places_[v].transit, v, arc});
    }
  }
  transit_begin_[n] = static_cast<std::uint32_t>(transit_arcs_.size());
  row_batches_.assign((transit_nodes_.size() + kRowBatch - 1) / kRowBatch, {});
  routing_built_ = true;
}

const std::int16_t* Topology::row(std::uint32_t anchor) const {
  const std::uint32_t batch = anchor / kRowBatch;
  if (row_batches_[batch].empty()) build_row_batch(batch);
  return row_batches_[batch].data() + std::size_t{anchor % kRowBatch} * transit_nodes_.size();
}

void Topology::build_row_batch(std::uint32_t batch) const {
  const std::size_t width = transit_nodes_.size();
  const std::uint32_t first = batch * kRowBatch;
  const auto count = static_cast<std::uint32_t>(std::min<std::size_t>(kRowBatch, width - first));
  std::vector<std::int16_t>& rows = row_batches_[batch];
  rows.assign(std::size_t{count} * width, -1);
  // Bit j of seen[t] / reach[t]: source first + j has reached transit node
  // t / reached it at the current level. Links are full duplex, so the
  // transit arcs out of t are also the arcs into it.
  std::vector<std::uint64_t> seen(width, 0);
  std::vector<std::uint64_t> reach(width, 0);
  std::vector<std::uint64_t> next(width, 0);
  std::vector<std::uint32_t> frontier;
  std::vector<std::uint32_t> grown;
  for (std::uint32_t j = 0; j < count; ++j) {
    seen[first + j] = reach[first + j] = std::uint64_t{1} << j;
    rows[j * width + first + j] = 0;
    frontier.push_back(first + j);
  }
  for (std::int16_t level = 0; !frontier.empty(); ++level) {
    if (level == std::numeric_limits<std::int16_t>::max()) {
      throw std::runtime_error("topology: diameter overflows the int16 distance cache");
    }
    for (const std::uint32_t t : frontier) {
      const NodeId u = transit_nodes_[t];
      for (std::uint32_t e = transit_begin_[u]; e < transit_begin_[u + 1]; ++e) {
        const std::uint32_t v = transit_arcs_[e].transit;
        const std::uint64_t fresh = reach[t] & ~seen[v];
        if (fresh == 0) continue;
        if (next[v] == 0) grown.push_back(v);
        next[v] |= fresh;
        seen[v] |= fresh;
      }
    }
    for (const std::uint32_t t : frontier) reach[t] = 0;
    for (const std::uint32_t v : grown) {
      for (std::uint64_t bits = next[v]; bits != 0; bits &= bits - 1) {
        rows[static_cast<std::size_t>(std::countr_zero(bits)) * width + v] =
            static_cast<std::int16_t>(level + 1);
      }
      reach[v] = next[v];
      next[v] = 0;
    }
    frontier.swap(grown);
    grown.clear();
  }
}

std::vector<Arc> Topology::route(NodeId src, NodeId dst, std::uint64_t flow_key) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) throw std::out_of_range("topology: bad node id");
  std::vector<Arc> path;
  if (src == dst) return path;  // loopback: no network arcs
  if (!routing_built_) build_routing_index();
  const Place from = places_[src];
  const Place to = places_[dst];
  // Under a shared anchor (every rack-local flow) the transit distance is 0
  // and no hop below needs a row.
  const std::int16_t* dist = from.transit == to.transit ? nullptr : row(to.transit);
  const int hops = hop_count(from, to, dist);
  if (hops < 0) {
    throw std::runtime_error("topology: no path " + nodes_[src].name + " -> " + nodes_[dst].name);
  }
  path.reserve(static_cast<std::size_t>(hops));
  const TransitArc* arcs = transit_arcs_.data();
  NodeId here = src;
  for (int hop = 0; hop < hops; ++hop) {
    // Hash-based per-flow ECMP: stable for one flow, spread across flows.
    // The next hop is the (h % count)-th equal-cost arc in adjacency order.
    const std::uint64_t h =
        mix(flow_key ^ mix((static_cast<std::uint64_t>(src) << 40) ^
                           (static_cast<std::uint64_t>(dst) << 20) ^
                           static_cast<std::uint64_t>(hop)));
    if (hop + 1 == hops && to.leaf != 0) {
      // Last hop into a leaf: its arcs all lead to `here`, and both ends
      // list a node pair's links in creation order, so the leaf's own arcs,
      // reversed, are the candidates in `here`'s adjacency order.
      const std::uint32_t begin = transit_begin_[dst];
      const Arc back = arcs[begin + h % (transit_begin_[dst + 1] - begin)].arc;
      path.push_back(Arc{back.link, static_cast<std::uint8_t>(back.dir ^ 1u)});
      break;
    }
    const std::uint32_t begin = transit_begin_[here];
    const std::uint32_t end = transit_begin_[here + 1];
    std::uint32_t next;
    if (hop == 0 && from.leaf != 0) {
      // Out of a leaf: every arc leads to its anchor, one hop closer.
      next = begin + static_cast<std::uint32_t>(h % (end - begin));
    } else {
      // Any other hop goes to a transit neighbour one hop closer: a leaf
      // neighbour other than dst is one hop *further*, its only way on
      // being back through `here`. Distance 0 is dst's anchor (dst itself
      // when it is transit), found by its transit index without the row;
      // parallel links into it stay distinct candidates.
      const int want = hops - hop - 1 - static_cast<int>(to.leaf);
      const std::uint32_t anchor = to.transit;
      next = want == 0
                 ? pick_arc(begin, end, h,
                            [arcs, anchor](std::uint32_t e) { return arcs[e].transit == anchor; })
                 : pick_arc(begin, end, h, [arcs, dist, want](std::uint32_t e) {
                     return dist[arcs[e].transit] == want;
                   });
    }
    path.push_back(arcs[next].arc);
    here = arcs[next].to;
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
  if (src == dst) return 0;
  if (!routing_built_) build_routing_index();
  const Place from = places_[src];
  const Place to = places_[dst];
  return hop_count(from, to, from.transit == to.transit ? nullptr : row(to.transit));
}

int Topology::hop_count(Place from, Place to, const std::int16_t* to_row) {
  // A leaf sits one hop beyond its anchor, and every path into or out of it
  // passes that anchor, so the anchors' transit distance is exact.
  const int d = to_row == nullptr ? 0 : to_row[from.transit];
  return d < 0 ? -1 : d + static_cast<int>(from.leaf + to.leaf);
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

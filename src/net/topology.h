// Network topology: nodes (hosts and switches), full-duplex links, and
// hop-count shortest-path routing with deterministic ECMP tie-breaking.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/units.h"

namespace keddah::net {

/// Node identity, branded (util::TaggedId) so other integer IDs — FileId,
/// job ids, rack indices — cannot silently travel as a node. Reads out
/// implicitly (dense-array subscripting everywhere); construction from a
/// raw integer is explicit.
using NodeId = util::TaggedId<struct NodeIdTag, std::uint32_t>;
using LinkId = std::uint32_t;

inline constexpr NodeId kInvalidNode{0xffffffffu};

/// A directed use of a full-duplex link: `link` traversed forward
/// (a -> b, dir == 0) or backward (b -> a, dir == 1). Each direction has the
/// link's full capacity (full duplex).
struct Arc {
  LinkId link;
  std::uint8_t dir;

  /// Dense index usable as an array subscript: link * 2 + dir.
  std::uint32_t index() const { return link * 2 + dir; }
  bool operator==(const Arc& other) const = default;
};

/// A host or switch.
struct Node {
  NodeId id = kInvalidNode;
  std::string name;
  /// Rack index; hosts in the same rack are "rack-local" to each other.
  /// Switches use -1.
  int rack = -1;
  bool is_switch = false;
};

/// A full-duplex point-to-point link.
struct Link {
  LinkId id = 0;
  NodeId a = kInvalidNode;
  NodeId b = kInvalidNode;
  /// Capacity per direction.
  util::Rate capacity;
  /// One-way propagation delay.
  util::Seconds latency;
};

/// An immutable-after-build graph of nodes and links with routing queries.
///
/// Routing is hop-count shortest path. When several equal-cost next hops
/// exist (e.g. in a fat-tree), the choice is a deterministic hash of
/// (src, dst, flow_key), which models per-flow ECMP.
class Topology {
 public:
  /// Adds a host in rack `rack`. Names must be unique.
  NodeId add_host(const std::string& name, int rack);

  /// Adds a switch (never a flow endpoint).
  NodeId add_switch(const std::string& name);

  /// Connects two nodes with a full-duplex link.
  LinkId add_link(NodeId a, NodeId b, util::Rate capacity, util::Seconds latency);

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_links() const { return links_.size(); }
  std::size_t num_arcs() const { return links_.size() * 2; }

  const Node& node(NodeId id) const { return nodes_.at(id); }
  const Link& link(LinkId id) const { return links_.at(id); }

  /// Rewrites a link's per-direction capacity (fault injection: link
  /// degradation windows). Routing is unaffected; callers that cache rates
  /// (the network engine) must recompute shares afterwards. Returns false
  /// when the new capacity equals the current one — callers use this to
  /// keep their dirty sets empty on no-op rewrites.
  bool set_link_capacity(LinkId id, util::Rate capacity);

  /// Links incident to a node, in creation order (a host's single entry is
  /// its access link).
  std::vector<LinkId> links_at(NodeId id) const;

  /// Looks up a node by name; returns kInvalidNode when absent.
  NodeId find(const std::string& name) const;

  /// All host (non-switch) node ids, in creation order.
  std::vector<NodeId> hosts() const;

  /// Hosts grouped by rack index, ordered by rack so iteration (which
  /// feeds placement and report output) is platform-independent.
  std::map<int, std::vector<NodeId>> hosts_by_rack() const;

  /// Shortest path from src to dst as a sequence of directed arcs.
  /// `flow_key` seeds the ECMP hash so distinct flows may take distinct
  /// equal-cost paths while a given flow is stable. Throws
  /// std::runtime_error when dst is unreachable.
  std::vector<Arc> route(NodeId src, NodeId dst, std::uint64_t flow_key) const;

  /// Sum of per-arc latencies along `path` (e.g. a route() result), in
  /// path order.
  util::Seconds path_latency(const std::vector<Arc>& path) const;

  /// Hop distance (number of links) between two nodes, or -1 if unreachable.
  int distance(NodeId src, NodeId dst) const;

  /// True if both nodes are hosts in the same rack.
  bool same_rack(NodeId a, NodeId b) const;

  /// Arc endpoint helpers.
  NodeId arc_from(Arc arc) const;
  NodeId arc_to(Arc arc) const;

 private:
  /// Hop distances to one destination: 0 at `dst` itself, otherwise the
  /// anchor's BFS row plus `offset`, and -1 where the row says unreachable.
  struct DistanceTo {
    const std::int16_t* row;
    NodeId dst;
    int offset;

    int operator()(NodeId v) const {
      if (v == dst) return 0;
      const int d = row[v];
      return d < 0 ? -1 : d + offset;
    }
  };

  /// The one hop-distance oracle behind route() and distance(). A
  /// destination whose every link leads to one node (a leaf host under its
  /// edge switch) is anchored at that node and answered from its row plus
  /// one hop, which is exact because every path into a leaf passes through
  /// its neighbour. Any other destination (a switch, a multi-homed or
  /// isolated host) is its own anchor. A k=36 fat-tree thus needs 648
  /// host-facing rows, not 11,664.
  DistanceTo dist_to(NodeId dst) const;

  /// BFS distances from every node to `anchor`, built on first use. Entries
  /// are int16_t: any real topology's diameter fits with five orders of
  /// magnitude to spare, and BFS throws if a distance would overflow. The
  /// pointer stays valid until the graph changes.
  const std::int16_t* row(NodeId anchor) const;

  NodeId add_node(const std::string& name, int rack, bool is_switch);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  /// adjacency_[n] = list of (neighbor, arc leaving n).
  std::vector<std::vector<std::pair<NodeId, Arc>>> adjacency_;
  std::unordered_map<std::string, NodeId> by_name_;
  /// row_slot_[anchor] indexes the anchor's num_nodes()-wide row in rows_,
  /// or is -1 while unbuilt; both reset whenever the graph changes. Rows are
  /// separate row-sized blocks rather than one contiguous array: a block of
  /// tens of MB is mmap'd and handed back to the OS when the topology dies,
  /// so a process that builds network after network would page-fault its
  /// next set-up back in.
  mutable std::vector<std::int32_t> row_slot_;
  mutable std::vector<std::vector<std::int16_t>> rows_;
};

/// Topology builders used across tests, examples, and benches. All hosts are
/// named "hN" (N = creation order) so scenarios can address them uniformly.
/// These keep raw double parameters (bits/second, seconds) as a deliberate
/// convenience boundary; the strong-typed Topology API checks everything
/// downstream of them.

/// Single switch, `num_hosts` hosts, one access link each.
Topology make_star(std::size_t num_hosts, double access_bps, double latency_s);

/// Classic 2-tier cluster: one top-of-rack switch per rack, all ToRs on one
/// core switch. Hosts get `access_bps` links, ToR uplinks get `core_bps`.
Topology make_rack_tree(std::size_t racks, std::size_t hosts_per_rack, double access_bps,
                        double core_bps, double latency_s);

/// k-ary fat-tree (k even): k pods, (k/2)^2 core switches, k^3/4 hosts.
/// Host access links run at `link_bps`; edge->aggregation and
/// aggregation->core uplinks run at `link_bps / oversubscription`, so 1.0
/// (the default) is the classic full-bisection fat-tree and e.g. 4.0 models
/// the 4:1 oversubscribed fabrics common in production clusters. Rack
/// index = edge switch index.
Topology make_fat_tree(std::size_t k, double link_bps, double latency_s,
                       double oversubscription = 1.0);

/// Two hosts groups joined by one bottleneck link; for unit tests.
Topology make_dumbbell(std::size_t left, std::size_t right, double access_bps,
                       double bottleneck_bps, double latency_s);

}  // namespace keddah::net

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

  /// Connects two nodes with a full-duplex link. Throws
  /// std::invalid_argument unless the capacity is finite and > 0.
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
  /// keep their dirty sets empty on no-op rewrites. The capacity is checked
  /// as add_link checks it.
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
  /// Where a node sits in the routing index. A *leaf* is a node whose every
  /// link leads to one neighbour that is not itself a leaf (a host under its
  /// edge switch); every other node is *transit*. `transit` is the dense
  /// transit index of the node itself, or of its anchor for a leaf; `leaf`
  /// is the one extra hop from a leaf to that anchor.
  struct Place {
    std::uint32_t transit;
    std::uint32_t leaf;
  };

  /// An arc to a transit neighbour, with that neighbour's transit index.
  struct TransitArc {
    std::uint32_t transit;
    NodeId to;
    Arc arc;
  };

  /// Builds places_ and the transit adjacency on the first query after the
  /// graph changes, and drops every memoized row.
  void build_routing_index() const;

  /// BFS hop distances from every transit node to transit node `anchor`,
  /// indexed by transit index and built on first use. A shortest path
  /// between transit nodes never enters a leaf (a leaf is a dead end), so
  /// the BFS walks transit arcs only and a k=36 fat-tree row has 1,620
  /// entries, not 13,284. Rows come in batches of 64 consecutive transit
  /// indices, built together by one bit-parallel BFS into one block.
  /// Entries are int16_t: any real topology's diameter fits with five orders
  /// of magnitude to spare, and the BFS throws if a distance would overflow.
  /// The pointer stays valid until the graph changes.
  const std::int16_t* row(std::uint32_t anchor) const;

  /// Fills row_batches_[batch]: one BFS from all of the batch's transit
  /// nodes at once, each carried as one bit of a 64-bit reach mask.
  void build_row_batch(std::uint32_t batch) const;

  /// Hop distance between two distinct nodes at `from` and `to`, given the
  /// row of `to`'s anchor, or null when both share that anchor; -1 when
  /// unreachable.
  static int hop_count(Place from, Place to, const std::int16_t* to_row);

  NodeId add_node(const std::string& name, int rack, bool is_switch);

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  /// adjacency_[n] = list of (neighbor, arc leaving n), in link-creation
  /// order.
  std::vector<std::vector<std::pair<NodeId, Arc>>> adjacency_;
  std::unordered_map<std::string, NodeId> by_name_;

  /// Routing index, rebuilt lazily after any add_node/add_link.
  mutable bool routing_built_ = false;
  mutable std::vector<Place> places_;
  /// Transit node of each transit index. Nodes that anchor a leaf come
  /// first, so the row batches that routes to hosts need are dense.
  mutable std::vector<NodeId> transit_nodes_;
  /// CSR transit adjacency: node n's arcs to transit neighbours are
  /// transit_arcs_[transit_begin_[n] .. transit_begin_[n + 1]), in adjacency
  /// order. A leaf keeps all its arcs (they all go to its anchor).
  mutable std::vector<std::uint32_t> transit_begin_;
  mutable std::vector<TransitArc> transit_arcs_;
  /// row_batches_[b] holds the rows of transit indices [64b, 64b + 64)
  /// back to back, one allocation per batch, or is
  /// empty while unbuilt: only batches holding an anchor that is routed to
  /// are built.
  mutable std::vector<std::vector<std::int16_t>> row_batches_;
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

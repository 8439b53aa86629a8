// Node-pair traffic matrices: who talks to whom, and how unevenly.
//
// The paper's measurement sections examine where Hadoop traffic
// concentrates (reducer hot spots, rack crossings); this is the aggregation
// that supports those views over captured or replayed traces.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "capture/trace.h"
#include "net/topology.h"

namespace keddah::capture {

/// bytes[src][dst] aggregation of a trace. Only pairs that carry flows
/// are stored, so memory follows the trace, not the largest node id.
class TrafficMatrix {
 public:
  /// Builds from a trace; `num_nodes` must cover every node id that
  /// appears (records with larger ids throw std::out_of_range). It is also
  /// the node count imbalance() averages over.
  static TrafficMatrix from_trace(const Trace& trace, std::size_t num_nodes);

  /// Restricted to one classified traffic class.
  static TrafficMatrix from_trace(const Trace& trace, std::size_t num_nodes, net::FlowKind kind);

  std::size_t num_nodes() const { return n_; }

  /// Bytes sent src -> dst.
  double bytes(std::size_t src, std::size_t dst) const;

  /// Total bytes sent by / received at a node.
  double tx_bytes(std::size_t node) const;
  double rx_bytes(std::size_t node) const;

  /// Sum over all pairs.
  double total() const;

  /// Hotspot factor: max per-node (tx + rx) volume divided by the mean
  /// (1.0 = perfectly balanced). 0 for an empty matrix.
  double imbalance() const;

  /// Fraction of bytes crossing rack boundaries under `topology`'s rack
  /// assignment (node ids must be topology node ids).
  double cross_rack_fraction(const net::Topology& topology) const;

  /// The `k` busiest (src, dst, bytes) pairs, descending.
  struct HotPair {
    std::size_t src;
    std::size_t dst;
    double bytes;
  };
  std::vector<HotPair> hottest_pairs(std::size_t k) const;

 private:
  explicit TrafficMatrix(std::size_t n) : n_(n) {}
  std::size_t n_ = 0;
  /// Bytes per (src, dst) pair, iterated row-major like a dense matrix.
  std::map<std::pair<std::size_t, std::size_t>, double> cells_;
  /// Per-node totals, summed in the order a dense row/column scan would.
  std::map<std::size_t, double> tx_;
  std::map<std::size_t, double> rx_;
};

}  // namespace keddah::capture

#include "capture/matrix.h"

#include <algorithm>
#include <stdexcept>

namespace keddah::capture {

namespace {

double lookup(const std::map<std::size_t, double>& totals, std::size_t node) {
  const auto it = totals.find(node);
  return it == totals.end() ? 0.0 : it->second;
}

}  // namespace

TrafficMatrix TrafficMatrix::from_trace(const Trace& trace, std::size_t num_nodes) {
  TrafficMatrix m(num_nodes);
  for (const auto& r : trace.records()) {
    if (r.src_id >= num_nodes || r.dst_id >= num_nodes) {
      throw std::out_of_range("traffic matrix: record node id exceeds num_nodes");
    }
    m.cells_[{r.src_id, r.dst_id}] += r.bytes;
  }
  // Row-major order adds each node's row in dst order and its column in
  // src order, so the totals round exactly as a dense scan's would.
  for (const auto& [pair, bytes] : m.cells_) {
    m.tx_[pair.first] += bytes;
    m.rx_[pair.second] += bytes;
  }
  return m;
}

TrafficMatrix TrafficMatrix::from_trace(const Trace& trace, std::size_t num_nodes,
                                        net::FlowKind kind) {
  return from_trace(trace.filter_kind(kind), num_nodes);
}

double TrafficMatrix::bytes(std::size_t src, std::size_t dst) const {
  if (src >= n_ || dst >= n_) throw std::out_of_range("traffic matrix: bad index");
  const auto it = cells_.find({src, dst});
  return it == cells_.end() ? 0.0 : it->second;
}

double TrafficMatrix::tx_bytes(std::size_t node) const {
  if (node >= n_) throw std::out_of_range("traffic matrix: bad index");
  return lookup(tx_, node);
}

double TrafficMatrix::rx_bytes(std::size_t node) const {
  if (node >= n_) throw std::out_of_range("traffic matrix: bad index");
  return lookup(rx_, node);
}

double TrafficMatrix::total() const {
  double total = 0.0;
  for (const auto& [pair, bytes] : cells_) total += bytes;
  return total;
}

double TrafficMatrix::imbalance() const {
  if (n_ == 0) return 0.0;
  // Nodes that carry no bytes add 0 to the sum and cannot be the maximum.
  std::map<std::size_t, double> loads = tx_;
  for (const auto& [node, rx] : rx_) loads[node] += rx;
  double max_load = 0.0;
  double sum_load = 0.0;
  for (const auto& [node, load] : loads) {
    max_load = std::max(max_load, load);
    sum_load += load;
  }
  if (sum_load <= 0.0) return 0.0;
  return max_load / (sum_load / static_cast<double>(n_));
}

double TrafficMatrix::cross_rack_fraction(const net::Topology& topology) const {
  double cross = 0.0;
  double total_bytes = 0.0;
  for (const auto& [pair, b] : cells_) {
    if (b <= 0.0) continue;
    total_bytes += b;
    if (!topology.same_rack(static_cast<net::NodeId>(pair.first),
                            static_cast<net::NodeId>(pair.second))) {
      cross += b;
    }
  }
  return total_bytes > 0.0 ? cross / total_bytes : 0.0;
}

std::vector<TrafficMatrix::HotPair> TrafficMatrix::hottest_pairs(std::size_t k) const {
  std::vector<HotPair> pairs;
  for (const auto& [pair, b] : cells_) {
    if (b > 0.0) pairs.push_back(HotPair{pair.first, pair.second, b});
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const HotPair& a, const HotPair& b) { return a.bytes > b.bytes; });
  if (pairs.size() > k) pairs.resize(k);
  return pairs;
}

}  // namespace keddah::capture

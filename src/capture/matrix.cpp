#include "capture/matrix.h"

#include <algorithm>
#include <stdexcept>

namespace keddah::capture {

TrafficMatrix TrafficMatrix::from_trace(const Trace& trace, std::size_t num_nodes) {
  TrafficMatrix m(num_nodes);
  for (const auto& r : trace.records()) {
    if (r.src_id >= num_nodes || r.dst_id >= num_nodes) {
      throw std::out_of_range("traffic matrix: record node id exceeds num_nodes");
    }
    m.cells_[r.src_id * num_nodes + r.dst_id] += r.bytes;
  }
  return m;
}

TrafficMatrix TrafficMatrix::from_trace(const Trace& trace, std::size_t num_nodes,
                                        net::FlowKind kind) {
  return from_trace(trace.filter_kind(kind), num_nodes);
}

double TrafficMatrix::bytes(std::size_t src, std::size_t dst) const {
  if (src >= n_ || dst >= n_) throw std::out_of_range("traffic matrix: bad index");
  return cells_[src * n_ + dst];
}

double TrafficMatrix::tx_bytes(std::size_t node) const {
  if (node >= n_) throw std::out_of_range("traffic matrix: bad index");
  double total = 0.0;
  for (std::size_t d = 0; d < n_; ++d) total += cells_[node * n_ + d];
  return total;
}

double TrafficMatrix::rx_bytes(std::size_t node) const {
  if (node >= n_) throw std::out_of_range("traffic matrix: bad index");
  double total = 0.0;
  for (std::size_t s = 0; s < n_; ++s) total += cells_[s * n_ + node];
  return total;
}

double TrafficMatrix::total() const {
  double total = 0.0;
  for (const double c : cells_) total += c;
  return total;
}

double TrafficMatrix::imbalance() const {
  if (n_ == 0) return 0.0;
  double max_load = 0.0;
  double sum_load = 0.0;
  for (std::size_t i = 0; i < n_; ++i) {
    const double load = tx_bytes(i) + rx_bytes(i);
    max_load = std::max(max_load, load);
    sum_load += load;
  }
  if (sum_load <= 0.0) return 0.0;
  return max_load / (sum_load / static_cast<double>(n_));
}

double TrafficMatrix::cross_rack_fraction(const net::Topology& topology) const {
  double cross = 0.0;
  double total_bytes = 0.0;
  for (std::size_t s = 0; s < n_; ++s) {
    for (std::size_t d = 0; d < n_; ++d) {
      const double b = cells_[s * n_ + d];
      if (b <= 0.0) continue;
      total_bytes += b;
      if (!topology.same_rack(static_cast<net::NodeId>(s), static_cast<net::NodeId>(d))) {
        cross += b;
      }
    }
  }
  return total_bytes > 0.0 ? cross / total_bytes : 0.0;
}

std::vector<TrafficMatrix::HotPair> TrafficMatrix::hottest_pairs(std::size_t k) const {
  std::vector<HotPair> pairs;
  for (std::size_t s = 0; s < n_; ++s) {
    for (std::size_t d = 0; d < n_; ++d) {
      const double b = cells_[s * n_ + d];
      if (b > 0.0) pairs.push_back(HotPair{s, d, b});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const HotPair& a, const HotPair& b) { return a.bytes > b.bytes; });
  if (pairs.size() > k) pairs.resize(k);
  return pairs;
}

}  // namespace keddah::capture

// Captured flow records: the observable Keddah's capture stage extracts from
// tcpdump on every cluster node. Our records are produced by network taps
// but carry the same fields a pcap-derived flow table would.
#pragma once

#include <cstdint>
#include <type_traits>

#include "net/flow.h"

namespace keddah::capture {

/// One completed flow, as seen by the capture layer. Endpoints are node ids;
/// the Trace holding the record names them (Trace::name).
struct FlowRecord {
  net::NodeId src_id = net::kInvalidNode;
  net::NodeId dst_id = net::kInvalidNode;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  /// Payload bytes transferred (data direction: src sent them).
  double bytes = 0.0;
  /// First-byte and last-byte timestamps, seconds.
  double start = 0.0;
  double end = 0.0;
  /// Job correlation (the paper correlates flows with job logs); 0 = none.
  std::uint32_t job_id = 0;
  /// Ground-truth class stamped by the emulator. The port classifier does
  /// NOT read this; it exists so tests can score the classifier.
  net::FlowKind truth = net::FlowKind::kOther;

  double duration() const { return end - start; }
};
static_assert(std::is_trivially_copyable_v<FlowRecord>, "FlowRecord must stay id-only");

/// Port-based traffic classification, mirroring the paper's methodology:
/// Hadoop services listen on well-known ports, so the traffic class of a
/// flow is recoverable from its 5-tuple alone.
///
///   src_port 50010 -> DataNode serving data  -> HDFS read
///   dst_port 50010 -> writing into pipeline  -> HDFS write
///   src_port 13562 -> ShuffleHandler reply   -> shuffle
///   8020/8030/8031 on either side            -> control RPC / heartbeats
net::FlowKind classify_by_ports(const FlowRecord& record);

}  // namespace keddah::capture

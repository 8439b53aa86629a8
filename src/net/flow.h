// Flow descriptors shared between the network engine, the Hadoop emulation,
// and the capture library.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

#include "net/topology.h"
#include "sim/simulator.h"
#include "util/units.h"

namespace keddah::net {

using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

/// Well-known Hadoop service ports. These are what the real Keddah capture
/// stage keys on when classifying tcpdump output, so our emulated flows carry
/// them too and the classifier works exactly like the paper's.
namespace ports {
inline constexpr std::uint16_t kDataNodeXfer = 50010;   // HDFS block read/write
inline constexpr std::uint16_t kShuffle = 13562;        // MR ShuffleHandler HTTP
inline constexpr std::uint16_t kNameNodeRpc = 8020;     // HDFS control RPC
inline constexpr std::uint16_t kRmScheduler = 8030;     // AM <-> RM
inline constexpr std::uint16_t kRmTracker = 8031;       // NM heartbeat
inline constexpr std::uint16_t kEphemeralBase = 32768;  // client-side ports
}  // namespace ports

/// Ground-truth traffic class assigned by the emulator when it creates a
/// flow. The capture classifier re-derives a class from ports/direction
/// alone (as the paper does from pcaps); tests compare the two.
enum class FlowKind : std::uint8_t {
  kHdfsRead = 0,
  kShuffle = 1,
  kHdfsWrite = 2,
  kControl = 3,
  kOther = 4,
};

/// Human-readable class name ("hdfs_read", ...).
const char* flow_kind_name(FlowKind kind);

/// The class whose flow_kind_name() is `name`; nullopt for any other text.
std::optional<FlowKind> flow_kind_from_name(std::string_view name);

/// Number of FlowKind values (for array sizing).
inline constexpr std::size_t kNumFlowKinds = 5;

/// Application-level annotations carried by a flow. `src_port`/`dst_port`
/// follow data direction: src is the byte sender.
struct FlowMeta {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  /// Job that caused the flow; 0 for background/control traffic.
  std::uint32_t job_id = 0;
  /// Ground truth class (not consulted by the port classifier).
  FlowKind kind = FlowKind::kOther;
};

/// A (possibly still active) flow as exposed to taps and callbacks.
struct Flow {
  FlowId id = kInvalidFlow;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  /// Application payload.
  util::Bytes bytes;
  FlowMeta meta;
  /// Time start_flow() was called.
  sim::Time submit_time = 0.0;
  /// Time the first byte entered the network (after connection latency).
  sim::Time start_time = 0.0;
  /// Completion time; meaningful once done.
  sim::Time end_time = 0.0;
  /// Current max-min fair rate, bits/second.
  double rate_bps = 0.0;
  /// Application-imposed rate ceiling (e.g. disk throughput), bits/second.
  double rate_cap_bps = std::numeric_limits<double>::infinity();
  /// Remaining payload. Kept in util::Bytes (not a raw double) so the
  /// KEDDAH_CHECK NaN/negative audits cover the progress hot path: an
  /// accounting bug that drives a flow's residual negative throws at the
  /// subtraction that produced it. Progress is materialized lazily — the
  /// value is exact as of the flow's last rate change, not of now().
  util::Bytes remaining;
  /// Arcs traversed (empty for loopback flows).
  std::vector<Arc> path;
  bool done = false;
  /// True when the flow was terminated early (endpoint failure). `bytes` is
  /// rewritten to the partial payload actually delivered before the abort.
  bool aborted = false;

  bool loopback() const { return src == dst; }
  /// Mean throughput over the flow's life, bits/second.
  double mean_rate_bps() const {
    const double dt = end_time - start_time;
    return dt > 0.0 ? bytes.bits() / dt : 0.0;
  }
};

}  // namespace keddah::net

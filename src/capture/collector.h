// FlowCollector: the "tcpdump on every node" of the toolchain. It taps the
// network engine and accumulates completed flows into a Trace — or, when a
// spill directory is configured, streams them to an mmap'd KSPL spill file
// so capture volume is bounded by disk instead of RAM (capture/spill.h).
#pragma once

#include <memory>
#include <string>

#include "capture/spill.h"
#include "capture/trace.h"
#include "net/network.h"

namespace keddah::capture {

/// Capture options.
struct CollectorOptions {
  /// Loopback (same-node) transfers never cross a NIC; real captures do not
  /// see them, so they are dropped by default.
  bool include_loopback = false;
  /// Drop control-plane flows (some analyses exclude the constant RPC hum).
  bool include_control = true;
  /// When non-empty, records spill to `<spill_dir>/capture.kspill` instead
  /// of accumulating in the in-memory Trace (trace() stays empty). The
  /// directory is created if absent. Read the result back with SpillReader
  /// after finalize_spill() (or collector destruction).
  std::string spill_dir;
};

/// Subscribes to a Network's completion tap and records each finished flow.
/// Attach exactly one collector per Network per capture run.
class FlowCollector {
 public:
  /// Registers the tap on construction; the collector must outlive the
  /// network's remaining lifetime of use.
  explicit FlowCollector(net::Network& network, CollectorOptions options = {});

  FlowCollector(const FlowCollector&) = delete;
  FlowCollector& operator=(const FlowCollector&) = delete;

  /// The trace captured so far (always empty in spill mode).
  const Trace& trace() const { return trace_; }

  /// Moves the accumulated trace out and resets the collector.
  Trace take();

  std::size_t dropped_loopback() const { return dropped_loopback_; }

  /// True when records stream to a spill file instead of the Trace.
  bool spilling() const { return spill_ != nullptr; }
  /// Records written to the spill so far (0 when not spilling).
  std::uint64_t spilled() const { return spill_ ? spill_->records() : 0; }
  /// Path of the spill file ("" when not spilling).
  std::string spill_path() const { return spill_ ? spill_->path() : std::string(); }
  /// Finalizes the spill file (header patch + shrink); idempotent, and run
  /// automatically on destruction. Call before reading the file back.
  void finalize_spill();

 private:
  void on_flow(const net::Flow& flow);

  CollectorOptions options_;
  /// Names every node of the topology; spill_ shares its table.
  Trace trace_;
  std::unique_ptr<SpillWriter> spill_;
  std::size_t dropped_loopback_ = 0;
};

}  // namespace keddah::capture

#include "capture/collector.h"

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace keddah::capture {

FlowCollector::FlowCollector(net::Network& network, CollectorOptions options)
    : options_(std::move(options)) {
  const net::Topology& topo = network.topology();
  std::vector<std::string> names;
  names.reserve(topo.num_nodes());
  for (std::uint32_t id = 0; id < topo.num_nodes(); ++id) {
    names.push_back(topo.node(net::NodeId(id)).name);
  }
  trace_ = Trace(std::make_shared<const std::vector<std::string>>(std::move(names)));
  if (!options_.spill_dir.empty()) {
    std::filesystem::create_directories(options_.spill_dir);
    const std::string path =
        (std::filesystem::path(options_.spill_dir) / "capture.kspill").string();
    spill_ = std::make_unique<SpillWriter>(path, trace_.names());
  }
  network.add_completion_tap([this](const net::Flow& flow) { on_flow(flow); });
}

Trace FlowCollector::take() { return std::exchange(trace_, Trace(trace_.names())); }

void FlowCollector::finalize_spill() {
  if (spill_) spill_->finalize();
}

void FlowCollector::on_flow(const net::Flow& flow) {
  if (flow.loopback() && !options_.include_loopback) {
    ++dropped_loopback_;
    return;
  }
  if (!options_.include_control && flow.meta.kind == net::FlowKind::kControl) return;
  // A connect that failed before any payload moved leaves nothing in a real
  // pcap; aborted flows with partial payload are kept (truncated transfer).
  if (flow.aborted && flow.bytes.value() <= 0.0) return;
  FlowRecord r;
  r.src_id = flow.src;
  r.dst_id = flow.dst;
  r.src_port = flow.meta.src_port;
  r.dst_port = flow.meta.dst_port;
  r.bytes = flow.bytes.value();
  r.start = flow.start_time;
  r.end = flow.end_time;
  r.job_id = flow.meta.job_id;
  r.truth = flow.meta.kind;
  if (spill_) {
    spill_->add(r);
  } else {
    trace_.add(r);
  }
}

}  // namespace keddah::capture

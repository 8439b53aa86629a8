#include "capture/collector.h"

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

namespace keddah::capture {

FlowCollector::FlowCollector(net::Network& network, CollectorOptions options)
    : options_(std::move(options)) {
  const net::Topology* topo = &network.topology();
  if (!options_.spill_dir.empty()) {
    std::filesystem::create_directories(options_.spill_dir);
    const std::string path =
        (std::filesystem::path(options_.spill_dir) / "capture.kspill").string();
    std::vector<std::string> names;
    names.reserve(topo->num_nodes());
    for (std::uint32_t id = 0; id < topo->num_nodes(); ++id) {
      names.push_back(topo->node(net::NodeId(id)).name);
    }
    spill_ = std::make_unique<SpillWriter>(path, std::move(names));
  }
  network.add_completion_tap([this, topo](const net::Flow& flow) { on_flow(flow, *topo); });
}

Trace FlowCollector::take() {
  Trace out = std::move(trace_);
  trace_ = Trace();
  return out;
}

void FlowCollector::finalize_spill() {
  if (spill_) spill_->finalize();
}

void FlowCollector::on_flow(const net::Flow& flow, const net::Topology& topo) {
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
    spill_->add(r);  // the spill names endpoints from its table
    return;
  }
  r.src = topo.node(flow.src).name;
  r.dst = topo.node(flow.dst).name;
  trace_.add(std::move(r));
}

}  // namespace keddah::capture

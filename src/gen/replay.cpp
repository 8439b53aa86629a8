#include "gen/replay.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>

#include "capture/collector.h"
#include "capture/spill.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "stats/summary.h"

namespace keddah::gen {

namespace {
/// The simulator, network and capture one replay runs on, plus the mapping
/// from a schedule's host indices to the topology's hosts.
struct ReplayRig {
  ReplayRig(const net::Topology& topology, double loopback_bps, const std::string& spill_dir)
      : network(sim, topology, net::NetworkOptions{.loopback = util::Rate::bps(loopback_bps)}),
        collector(network, capture::CollectorOptions{.spill_dir = spill_dir}),
        hosts(network.topology().hosts()) {}

  /// Host index i is the i-th host (modulo host count); a flow whose two
  /// indices land on one host goes to the next host instead.
  std::pair<net::NodeId, net::NodeId> endpoints(const SyntheticFlow& f) const {
    const net::NodeId src = hosts[f.src_host % hosts.size()];
    net::NodeId dst = hosts[f.dst_host % hosts.size()];
    if (dst == src) dst = hosts[(f.dst_host + 1) % hosts.size()];
    return {src, dst};
  }

  /// Runs the simulation and moves the capture into `result`: the trace, or
  /// the finalized spill with its makespan streamed off the mmap'd file
  /// rather than loaded into RAM.
  void finish(ReplayResult& result) {
    sim.run();
    if (!collector.spilling()) {
      result.trace = collector.take();
      result.makespan = result.trace.empty() ? 0.0 : result.trace.last_end();
      return;
    }
    collector.finalize_spill();
    result.spilled_records = collector.spilled();
    result.spill_path = collector.spill_path();
    capture::SpillReader reader(result.spill_path);
    for (std::uint64_t i = 0; i < reader.size(); ++i) {
      result.makespan = std::max(result.makespan, reader.record(i).end);
    }
  }

  sim::Simulator sim;
  net::Network network;
  capture::FlowCollector collector;
  const std::vector<net::NodeId> hosts;
};
}  // namespace

double ReplayResult::mean_fct() const { return stats::mean(flow_completion_times); }

double ReplayResult::p99_fct() const {
  if (flow_completion_times.empty()) return 0.0;
  return stats::quantile(flow_completion_times, 0.99);
}

net::FlowMeta meta_for_kind(net::FlowKind kind, std::uint32_t job_id) {
  net::FlowMeta meta;
  meta.job_id = job_id;
  meta.kind = kind;
  switch (kind) {
    case net::FlowKind::kHdfsRead:
      meta.src_port = net::ports::kDataNodeXfer;
      meta.dst_port = net::ports::kEphemeralBase;
      break;
    case net::FlowKind::kHdfsWrite:
      meta.src_port = net::ports::kEphemeralBase;
      meta.dst_port = net::ports::kDataNodeXfer;
      break;
    case net::FlowKind::kShuffle:
      meta.src_port = net::ports::kShuffle;
      meta.dst_port = net::ports::kEphemeralBase;
      break;
    case net::FlowKind::kControl:
      meta.src_port = net::ports::kEphemeralBase;
      meta.dst_port = net::ports::kRmTracker;
      break;
    case net::FlowKind::kOther:
      meta.src_port = net::ports::kEphemeralBase;
      meta.dst_port = net::ports::kEphemeralBase + 1;
      break;
  }
  return meta;
}

ReplayResult replay_closed_loop(const SyntheticTrafficSchedule& schedule,
                                const net::Topology& topology, ClosedLoopOptions options) {
  ReplayRig rig(topology, options.loopback_bps, options.spill_dir);
  auto& network = rig.network;
  const auto& hosts = rig.hosts;
  ReplayResult result;
  if (hosts.empty()) return result;

  // Per-destination shuffle fetch windows: in-flight count + FIFO backlog.
  struct FetchWindow {
    std::size_t inflight = 0;
    std::deque<SyntheticFlow> backlog;
  };
  auto windows = std::make_shared<std::unordered_map<std::size_t, FetchWindow>>();

  // Launch one flow onto the fabric; shuffle completions pump the window.
  auto launch = std::make_shared<std::function<void(const SyntheticFlow&)>>();
  *launch = [&rig, &network, &result, &hosts, windows, launch, options](const SyntheticFlow& f) {
    const auto [src, dst] = rig.endpoints(f);
    const bool gated = f.kind == net::FlowKind::kShuffle;
    const std::size_t window_key = f.dst_host % hosts.size();
    network.start_flow(src, dst, util::Bytes(f.bytes), meta_for_kind(f.kind),
                       [&result, windows, launch, gated, window_key](const net::Flow& flow) {
                         result.flow_completion_times.push_back(flow.end_time -
                                                                flow.submit_time);
                         if (!gated) return;
                         auto& window = (*windows)[window_key];
                         --window.inflight;
                         if (!window.backlog.empty()) {
                           const SyntheticFlow next = window.backlog.front();
                           window.backlog.pop_front();
                           ++window.inflight;
                           (*launch)(next);
                         }
                       });
  };

  for (const auto& f : schedule.flows) {
    rig.sim.schedule_at(f.start, [launch, windows, f, options, &hosts] {
      if (f.kind != net::FlowKind::kShuffle) {
        (*launch)(f);
        return;
      }
      auto& window = (*windows)[f.dst_host % hosts.size()];
      if (window.inflight < options.shuffle_fetch_slots) {
        ++window.inflight;
        (*launch)(f);
      } else {
        window.backlog.push_back(f);
      }
    });
  }
  rig.finish(result);
  // Break the launch lambda's self-reference so the shared state frees.
  *launch = nullptr;
  return result;
}

ReplayResult replay(const SyntheticTrafficSchedule& schedule, const net::Topology& topology,
                    double loopback_bps, const std::string& spill_dir) {
  ReplayRig rig(topology, loopback_bps, spill_dir);
  ReplayResult result;
  if (rig.hosts.empty()) return result;

  for (const auto& f : schedule.flows) {
    const auto [src, dst] = rig.endpoints(f);
    rig.sim.schedule_at(f.start, [&network = rig.network, &result, src, dst, f] {
      network.start_flow(src, dst, util::Bytes(f.bytes), meta_for_kind(f.kind),
                         [&result](const net::Flow& flow) {
                           result.flow_completion_times.push_back(flow.end_time -
                                                                  flow.submit_time);
                         });
    });
  }
  rig.finish(result);
  return result;
}

}  // namespace keddah::gen

#include "hadoop/cluster.h"

#include "util/check.h"

#include <stdexcept>

#include "util/log.h"
#include "util/strings.h"

namespace keddah::hadoop {

HadoopCluster::HadoopCluster(const ClusterConfig& config, std::uint64_t seed,
                             capture::CollectorOptions capture_options)
    : config_(config), rng_(seed) {
  net::Topology topo = config_.build_topology();
  net::NetworkOptions net_options;
  net_options.loopback = util::Rate::bps(config_.loopback_bps);
  network_ = std::make_unique<net::Network>(sim_, std::move(topo), net_options);
  workers_ = network_->topology().hosts();
  if (workers_.empty()) throw std::invalid_argument("cluster: topology has no hosts");

  collector_ = std::make_unique<capture::FlowCollector>(*network_, capture_options);
  hdfs_ = std::make_unique<HdfsCluster>(*network_, workers_, config_, rng_.split());
  scheduler_ = std::make_unique<YarnScheduler>(sim_, network_->topology(), workers_,
                                               config_.containers_per_node,
                                               config_.locality_scheduling,
                                               config_.locality_delay_s);
  runner_ = std::make_unique<JobRunner>(*network_, *hdfs_, *scheduler_, config_, rng_.split());
  runner_->set_history_log(&history_);
  control_ = std::make_unique<ControlPlane>(*network_, workers_, master(), config_, rng_.split());
}

std::string HadoopCluster::ensure_input(std::uint64_t bytes) {
  const std::string name = util::format("input_%llu", static_cast<unsigned long long>(bytes));
  if (!hdfs_->has_file(name)) hdfs_->ingest_file(name, bytes);
  return name;
}

JobResult HadoopCluster::run_job(const JobSpec& spec) {
  JobResult result;
  bool done = false;
  control_->enable();
  runner_->submit(spec, [&](const JobResult& r) {
    result = r;
    done = true;
    control_->disable();
  });
  sim_.run();
  if (!done) throw std::logic_error("cluster: simulator drained before job completion");
  return result;
}

bool HadoopCluster::take_node_down(net::NodeId node, bool permanent) {
  if (node == master()) throw std::invalid_argument("cluster: cannot fail the master node");
  if (!scheduler_->node_up(node)) return false;  // already down
  KLOG_INFO << (permanent ? "failing" : "taking down") << " node "
            << network_->topology().node(node).name << " at t=" << sim_.now();
  // Order matters: take the scheduler capacity away first so reruns cannot
  // land on the dead node, then stop the network forwarding its traffic and
  // abort in-flight flows (their failure callbacks see the node as down),
  // then repair storage, then rerun work.
  scheduler_->mark_node_down(node);
  network_->set_node_down(node);
  network_->abort_flows_touching(node);
  if (permanent) {
    hdfs_->handle_datanode_failure(node);
    runner_->handle_node_failure(node);
  } else {
    runner_->handle_node_outage(node);
  }
  control_->mark_node_down(node);
  return true;
}

void HadoopCluster::fail_node(net::NodeId node) {
  if (take_node_down(node, /*permanent=*/true)) {
    crashed_.insert(node);
    ++injected_.crashes;
    return;
  }
  // Already down. If that was only a transient outage, the crash escalates
  // it: the disk is now really gone (replicas repair, surviving map outputs
  // are lost) and the pending recovery must never revive the node.
  if (crashed_.insert(node).second) {
    hdfs_->handle_datanode_failure(node);
    runner_->handle_node_failure(node);
    ++injected_.crashes;
  }
}

void HadoopCluster::fail_node_at(net::NodeId node, double time) {
  sim_.schedule_at(time, [this, node] { fail_node(node); });
}

void HadoopCluster::fail_node_transient(net::NodeId node, double duration) {
  if (!(duration > 0.0)) {
    throw std::invalid_argument("cluster: outage duration must be > 0");
  }
  if (!take_node_down(node, /*permanent=*/false)) return;
  ++injected_.outages;
  sim_.schedule_in(duration, [this, node] { recover_node(node); });
}

void HadoopCluster::recover_node(net::NodeId node) {
  if (crashed_.count(node) != 0) return;  // crashed for good inside the window
  if (scheduler_->node_up(node)) return;  // already back
  KLOG_INFO << "recovering node " << network_->topology().node(node).name << " at t="
            << sim_.now();
  // Network first so heartbeats and reruns scheduled below can flow.
  network_->set_node_up(node);
  scheduler_->mark_node_up(node);
  control_->mark_node_up(node);
}

void HadoopCluster::degrade_link(net::NodeId node, double factor, double duration) {
  if (!(factor > 0.0) || !(factor < 1.0)) {
    throw std::invalid_argument("cluster: degrade factor must be in (0, 1)");
  }
  if (!(duration > 0.0)) {
    throw std::invalid_argument("cluster: degrade duration must be > 0");
  }
  const auto links = network_->topology().links_at(node);
  if (links.empty()) {
    throw std::invalid_argument("cluster: node has no access link to degrade");
  }
  const net::LinkId link = links.front();
  // Overlapping windows do not stack: the nominal capacity is remembered
  // once and the first restore ends the degradation.
  const auto [it, inserted] =
      degraded_links_.try_emplace(link, network_->topology().link(link).capacity);
  KLOG_INFO << "degrading access link of " << network_->topology().node(node).name
            << " to " << factor << "x at t=" << sim_.now();
  network_->set_link_capacity(link, it->second * factor);
  ++injected_.link_degradations;
  sim_.schedule_in(duration, [this, link] { restore_link(link); });
}

void HadoopCluster::restore_link(net::LinkId link) {
  const auto it = degraded_links_.find(link);
  if (it == degraded_links_.end()) return;  // already restored
  network_->set_link_capacity(link, it->second);
  degraded_links_.erase(it);
}

void HadoopCluster::slow_node(net::NodeId node, double factor, double duration) {
  if (!(factor > 1.0)) {
    throw std::invalid_argument("cluster: slow-node factor must be > 1");
  }
  if (!(duration > 0.0)) {
    throw std::invalid_argument("cluster: slow-node duration must be > 0");
  }
  runner_->set_node_slowdown(node, factor);
  ++injected_.slow_nodes;
  sim_.schedule_in(duration, [this, node] { runner_->set_node_slowdown(node, 1.0); });
}

void HadoopCluster::schedule_fault_plan(const FaultPlan& plan) {
  validate_fault_plan(plan, workers_.size(), "fault plan");
  for (const FaultEvent& event : plan.events) {
    const net::NodeId node = workers_.at(event.worker);
    switch (event.kind) {
      case FaultKind::kCrash:
        sim_.schedule_at(event.at, [this, node] { fail_node(node); });
        break;
      case FaultKind::kOutage:
        sim_.schedule_at(event.at, [this, node, d = event.duration] {
          fail_node_transient(node, d);
        });
        break;
      case FaultKind::kDegradeLink:
        sim_.schedule_at(event.at, [this, node, f = event.factor, d = event.duration] {
          degrade_link(node, f, d);
        });
        break;
      case FaultKind::kSlowNode:
        sim_.schedule_at(event.at, [this, node, f = event.factor, d = event.duration] {
          slow_node(node, f, d);
        });
        break;
    }
  }
}

FaultStats HadoopCluster::fault_stats() const {
  FaultStats stats = injected_;
  stats.aborted_flows = network_->aborted_flows();
  stats.aborted_bytes = network_->aborted_bytes();
  stats.fetch_retries = runner_->fetch_retries();
  stats.fetch_backoff_s = runner_->fetch_backoff_s();
  stats.fetch_failure_reruns = runner_->fetch_failure_reruns();
  stats.map_reruns = runner_->map_reruns();
  stats.reducer_restarts = runner_->reducer_restarts();
  stats.pipeline_rebuilds = hdfs_->pipeline_rebuilds();
  stats.hdfs_read_retries = hdfs_->read_retries();
  stats.rereplications = hdfs_->rereplications();
  if constexpr (util::kAuditEnabled) audit_fault_stats(stats);
  return stats;
}

}  // namespace keddah::hadoop

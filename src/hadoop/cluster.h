// HadoopCluster: the facade tying the whole emulated testbed together —
// simulator, fabric, HDFS, YARN, job runner, control plane, and the capture
// collector. This is the object the paper's "run a job and tcpdump it"
// workflow maps onto.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include <unordered_map>
#include <unordered_set>

#include "capture/collector.h"
#include "hadoop/config.h"
#include "hadoop/control.h"
#include "hadoop/faults.h"
#include "hadoop/hdfs.h"
#include "hadoop/joblog.h"
#include "hadoop/jobrunner.h"
#include "hadoop/yarn.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace keddah::hadoop {

/// A complete, ready-to-run emulated Hadoop cluster.
///
/// The master (ResourceManager + NameNode) is co-hosted on worker 0, as in
/// small testbeds; heartbeats from worker 0 are loopback and hence invisible
/// to capture, like a real co-hosted master.
class HadoopCluster {
 public:
  explicit HadoopCluster(const ClusterConfig& config, std::uint64_t seed = 1,
                         capture::CollectorOptions capture_options = {});

  HadoopCluster(const HadoopCluster&) = delete;
  HadoopCluster& operator=(const HadoopCluster&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  HdfsCluster& hdfs() { return *hdfs_; }
  YarnScheduler& scheduler() { return *scheduler_; }
  JobRunner& runner() { return *runner_; }
  ControlPlane& control() { return *control_; }
  const ClusterConfig& config() const { return config_; }

  /// The framework's job-history log (task/job lifecycle events), written
  /// by the runner as jobs execute; input to hadoop/attribution.h.
  const JobHistoryLog& history() const { return history_; }

  net::NodeId master() const { return workers_.front(); }
  const std::vector<net::NodeId>& workers() const { return workers_; }

  /// Ingests an input file sized `bytes` if it does not already exist;
  /// returns its name. The name encodes the size so repeated runs share it.
  std::string ensure_input(std::uint64_t bytes);

  /// Runs one hand-built job to completion (blocking: advances the
  /// simulator until the job's output is durable). Control traffic is
  /// emitted while the job runs. Returns the execution summary. Workload
  /// jobs, mixes and chains go through workloads::run_jobs instead.
  JobResult run_job(const JobSpec& spec);

  /// Flows captured so far (excludes loopback per collector options).
  const capture::Trace& trace() const { return collector_->trace(); }

  /// Takes ownership of the captured trace and clears the collector, so the
  /// next run starts a fresh capture.
  capture::Trace take_trace() { return collector_->take(); }

  /// The collector behind trace()/take_trace(), for spill-mode queries
  /// (spilling()/spilled()/spill_path()/finalize_spill()).
  capture::FlowCollector& collector() { return *collector_; }

  /// Fails a worker immediately and permanently: the NodeManager's
  /// containers die (tasks rerun elsewhere), its DataNode's replicas are
  /// re-replicated, in-flight flows touching the node are aborted with
  /// partial-byte accounting, and its heartbeats stop. The master (worker 0)
  /// cannot be failed.
  void fail_node(net::NodeId node);

  /// Schedules fail_node(node) at an absolute simulation time.
  void fail_node_at(net::NodeId node, double time);

  /// Takes a worker down transiently: attempts die and in-flight flows abort
  /// as for a crash, but map outputs and HDFS replicas survive on disk —
  /// shuffle fetches against the host fail and retry with backoff until the
  /// node recovers `duration` seconds later (or the fetch-failure threshold
  /// declares the outputs lost first).
  void fail_node_transient(net::NodeId node, double duration);

  /// Brings a transiently-down worker back: the network forwards its flows
  /// again, the scheduler re-adds its (empty) container slots, and its
  /// heartbeats resume.
  void recover_node(net::NodeId node);

  /// Cuts the worker's access-link capacity to `factor` (in (0,1)) of
  /// nominal for `duration` seconds, then restores it.
  void degrade_link(net::NodeId node, double factor, double duration);

  /// Makes compute on the worker run `factor` (> 1) times slower for
  /// `duration` seconds (straggler injection).
  void slow_node(net::NodeId node, double factor, double duration);

  /// Schedules every event of a validated fault plan onto the simulator.
  /// Worker indices are resolved against workers(); throws
  /// std::invalid_argument on out-of-range or master (index 0) targets.
  void schedule_fault_plan(const FaultPlan& plan);

  /// Snapshot of injected faults and the recovery work they caused, merged
  /// from the network, HDFS, and job-runner counters.
  FaultStats fault_stats() const;

 private:
  /// Shared crash/outage entry; `permanent` picks the HDFS + rerun policy.
  /// Returns false when the node was already down (nothing happened).
  bool take_node_down(net::NodeId node, bool permanent);
  void restore_link(net::LinkId link);
  ClusterConfig config_;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  std::vector<net::NodeId> workers_;
  std::unique_ptr<capture::FlowCollector> collector_;
  std::unique_ptr<HdfsCluster> hdfs_;
  std::unique_ptr<YarnScheduler> scheduler_;
  std::unique_ptr<JobRunner> runner_;
  std::unique_ptr<ControlPlane> control_;
  JobHistoryLog history_;
  util::Rng rng_;
  /// Injection counters (recovery counters live in the subsystems).
  FaultStats injected_;
  /// Nominal capacity of links currently degraded, for restore_link.
  std::unordered_map<net::LinkId, util::Rate> degraded_links_;
  /// Permanently crashed nodes; a pending outage recovery must not revive
  /// a node that crashed for good inside its window.
  std::unordered_set<net::NodeId> crashed_;
};

}  // namespace keddah::hadoop

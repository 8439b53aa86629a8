// Scripted fault injection: a FaultPlan is a validated list of fault events
// — permanent crashes, transient outages with a recovery time, access-link
// degradation windows, and slow-node (straggler) injection — declared in
// scenario JSON or on the CLI and scheduled onto a HadoopCluster. FaultStats
// aggregates the recovery counters (retries, backoff, rebuilds, aborted
// flows) a faulted run produces, so captures under faults can be compared
// against clean ones.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/json_reader.h"
#include "util/units.h"

namespace keddah::hadoop {

/// What kind of fault an event injects.
enum class FaultKind : std::uint8_t {
  /// Permanent node crash: containers die, replicas re-replicate, the node
  /// never returns.
  kCrash = 0,
  /// Transient outage: as a crash, but data survives on disk and the node
  /// rejoins after `duration` with empty container slots.
  kOutage = 1,
  /// The worker's access link runs at `factor` x capacity for `duration`.
  kDegradeLink = 2,
  /// Compute on the worker runs `factor` times slower for `duration`.
  kSlowNode = 3,
};

/// Human-readable kind name ("crash", "outage", "degrade_link", "slow_node").
const char* fault_kind_name(FaultKind kind);

/// Inverse of fault_kind_name; throws std::invalid_argument on unknown names.
FaultKind fault_kind_from_name(const std::string& name);

/// One scripted fault.
struct FaultEvent {
  FaultKind kind = FaultKind::kCrash;
  /// Worker index into HadoopCluster::workers(). Worker 0 co-hosts the
  /// master and cannot be faulted.
  std::size_t worker = 0;
  /// Injection time, seconds of simulation.
  double at = 0.0;
  /// Window length, seconds: recovery time for outages, degradation window
  /// for degrade_link, slowdown window for slow_node. Ignored for crashes.
  double duration = 0.0;
  /// degrade_link: capacity multiplier in (0, 1). slow_node: compute
  /// multiplier > 1. Ignored for crash/outage.
  double factor = 0.0;
};

/// An ordered script of fault events for one run.
struct FaultPlan {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }
};

/// Range checks on one event, reported under `prefix` (e.g. "faults[2]"):
/// worker 0 hosts the master, worker indices must exist (`num_workers` 0 =
/// cluster unknown), times are >= 0, transient faults need a window > 0,
/// and factors must lie in their kind's domain. A crash's ignored duration
/// is a warning.
void check_fault_event(const FaultEvent& event, std::size_t num_workers,
                       const std::string& prefix, util::Diagnostics& diagnostics);

/// check_fault_event over every event of a programmatic plan; throws the
/// first error as a util::SpecError naming `context`.
void validate_fault_plan(const FaultPlan& plan, std::size_t num_workers,
                         const std::string& context);

/// Parses the JSON array of fault events found at key path `key`:
///   [ {"kind": "outage",       "worker": 3, "at": 10.0, "duration": 15.0},
///     {"kind": "degrade_link", "worker": 2, "at": 5.0, "duration": 20.0, "factor": 0.1},
///     {"kind": "slow_node",    "worker": 1, "at": 0.0, "duration": 30.0, "factor": 4.0},
///     {"kind": "crash",        "worker": 5, "at": 12.5} ]
/// Entries without "kind" are legacy crash entries ({"worker", "at"}).
/// Records every defect in `diagnostics`: field types, check_fault_event,
/// windows past `horizon` (<= 0: none), duplicate events, and events on a
/// worker an earlier-or-equal crash already killed.
FaultPlan parse_fault_plan(const util::Json& array, util::Diagnostics& diagnostics,
                           const std::string& key, std::size_t num_workers = 0,
                           double horizon = 0.0);

/// A standalone fault-plan document (entries keyed "$[i]"), checked against
/// a cluster of `num_workers`; throws the first error as a util::SpecError
/// naming `context`.
FaultPlan parse_fault_plan(const util::Json& array, const std::string& context,
                           std::size_t num_workers);

/// Aggregated fault/recovery counters for one cluster run.
struct FaultStats {
  // Injections performed.
  std::uint64_t crashes = 0;
  std::uint64_t outages = 0;
  std::uint64_t link_degradations = 0;
  std::uint64_t slow_nodes = 0;
  // Recovery work those injections caused.
  std::uint64_t aborted_flows = 0;
  util::Bytes aborted_bytes;
  std::uint64_t fetch_retries = 0;
  double fetch_backoff_s = 0.0;
  std::uint64_t fetch_failure_reruns = 0;
  std::uint64_t map_reruns = 0;
  std::uint64_t reducer_restarts = 0;
  std::uint64_t pipeline_rebuilds = 0;
  std::uint64_t hdfs_read_retries = 0;
  std::uint64_t rereplications = 0;
};

/// Audits internal consistency of aggregated fault counters: aborted bytes
/// require aborted flows (and vice versa for a non-trivial payload), and
/// recovery work (reruns, restarts, rebuilds, re-replications, retries)
/// requires at least one injected fault. Throws util::AuditError naming the
/// violated relation. Called by HadoopCluster::fault_stats() in KEDDAH_CHECK
/// builds; callable explicitly in any build (the audit test does).
void audit_fault_stats(const FaultStats& stats);

}  // namespace keddah::hadoop

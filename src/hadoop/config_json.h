// JSON ⇄ ClusterConfig: the one "cluster" object schema shared by scenario
// files (src/keddah/scenario.h), the versioned Spec API (src/api/specs.h),
// and the serve daemon's request bodies. Parse errors name the source
// document and the JSON key path of the offending field (util/json_reader.h).
#pragma once

#include <string>

#include "hadoop/config.h"
#include "hadoop/faults.h"
#include "util/json.h"
#include "util/json_reader.h"

namespace keddah::hadoop {

/// Stable topology-kind name ("star", "racktree", "fattree").
const char* topology_kind_name(TopologyKind kind);

/// The defaults a scenario-style document assumes when the "cluster" object
/// (or one of its fields) is absent: the paper-era testbed with 4
/// containers/node and a 2 s delay-scheduling hold-out.
ClusterConfig default_scenario_cluster();

/// Parses a scenario-style "cluster" object found at key path `key` on top
/// of default_scenario_cluster(), recording every defect in `diagnostics`
/// and ending with check_cluster_config. A cluster too broken to size has
/// num_workers() == 0, so callers skip worker-index checks against it.
ClusterConfig parse_cluster_config(const util::Json& cluster, util::Diagnostics& diagnostics,
                                   const std::string& key = "cluster");

/// As above, throwing the first error as a util::SpecError
/// ("<context>: <key>.<field>: ...", `context` naming the source document).
ClusterConfig parse_cluster_config(const util::Json& cluster, const std::string& context,
                                   const std::string& key = "cluster");

/// Range and cross-field checks on the scenario-schema fields of a config
/// (sizes >= 1, rates and block size > 0, fractions in [0, 1], replication
/// within the cluster size), reported under `key`. The CLI's cluster flags go through
/// the same checks.
void check_cluster_config(const ClusterConfig& cfg, util::Diagnostics& diagnostics,
                          const std::string& key = "cluster");

/// Serializes the scenario-schema fields of a config. Round-trips through
/// parse_cluster_config.
util::Json cluster_config_to_json(const ClusterConfig& cfg);

/// Serializes a fault plan as the scenario-schema "faults" array; inverse of
/// parse_fault_plan.
util::Json fault_plan_to_json(const FaultPlan& plan);

}  // namespace keddah::hadoop

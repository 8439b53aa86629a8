#include "hadoop/config_json.h"

#include <cmath>
#include <vector>

#include "hadoop/faults.h"
#include "util/strings.h"

namespace keddah::hadoop {

namespace {

/// A count field as read from JSON: negatives read as 0, which the range
/// checks reject, and huge values saturate instead of overflowing.
std::size_t to_size(double value) {
  if (!(value > 0.0)) return 0;
  return value >= 0x1p63 ? std::size_t{1} << 63 : static_cast<std::size_t>(value);
}

}  // namespace

const char* topology_kind_name(TopologyKind kind) {
  switch (kind) {
    case TopologyKind::kStar:
      return "star";
    case TopologyKind::kRackTree:
      return "racktree";
    case TopologyKind::kFatTree:
      return "fattree";
  }
  return "racktree";
}

ClusterConfig default_scenario_cluster() {
  ClusterConfig cfg;
  cfg.containers_per_node = 4;
  cfg.locality_delay_s = 2.0;
  return cfg;
}

ClusterConfig parse_cluster_config(const util::Json& cluster, util::Diagnostics& diagnostics,
                                   const std::string& key) {
  ClusterConfig cfg = default_scenario_cluster();
  util::JsonReader r(cluster, key, diagnostics);
  if (!r.expect_object("must be an object")) {
    cfg.racks = 0;  // unsized
    return cfg;
  }
  std::vector<std::string> topologies;
  for (const auto kind : {TopologyKind::kStar, TopologyKind::kRackTree, TopologyKind::kFatTree}) {
    topologies.emplace_back(topology_kind_name(kind));
  }
  cfg.topology = static_cast<TopologyKind>(
      r.name("topology", topologies, static_cast<std::size_t>(cfg.topology), "topology"));
  cfg.racks = to_size(r.number("racks", static_cast<double>(cfg.racks)));
  cfg.hosts_per_rack = to_size(r.number("hosts_per_rack", static_cast<double>(cfg.hosts_per_rack)));
  const double k = r.number("fat_tree_k", static_cast<double>(cfg.fat_tree_k));
  // A fractional arity reads as 0, which the range check rejects.
  cfg.fat_tree_k = k == std::floor(k) ? to_size(k) : 0;
  cfg.access_bps = r.number("access_gbps", 1.0) * 1e9;
  cfg.core_bps = r.number("core_gbps", 10.0) * 1e9;
  cfg.block_size = r.bytes("block_size", cfg.block_size);
  cfg.replication =
      static_cast<std::uint32_t>(to_size(r.number("replication", cfg.replication)));
  cfg.containers_per_node =
      to_size(r.number("containers", static_cast<double>(cfg.containers_per_node)));
  cfg.slowstart = r.number("slowstart", cfg.slowstart);
  cfg.locality_delay_s = r.number("locality_delay_s", cfg.locality_delay_s);
  cfg.map_output_compress_ratio = r.number("compress_ratio", cfg.map_output_compress_ratio);
  cfg.straggler_fraction = r.number("straggler_fraction", cfg.straggler_fraction);
  cfg.speculative_execution = r.boolean("speculative", cfg.speculative_execution);
  check_cluster_config(cfg, diagnostics, key);
  return cfg;
}

ClusterConfig parse_cluster_config(const util::Json& cluster, const std::string& context,
                                   const std::string& key) {
  return util::parse_or_throw(
      context, [&](util::Diagnostics& d) { return parse_cluster_config(cluster, d, key); });
}

void check_cluster_config(const ClusterConfig& cfg, util::Diagnostics& diagnostics,
                          const std::string& key) {
  const auto error = [&](const char* field, std::string message, std::string hint = "") {
    diagnostics.error(key + "." + field, std::move(message), std::move(hint));
  };
  if (cfg.racks < 1) error("racks", "must be >= 1");
  if (cfg.hosts_per_rack < 1) error("hosts_per_rack", "must be >= 1");
  if (cfg.topology == TopologyKind::kFatTree && (cfg.fat_tree_k < 2 || cfg.fat_tree_k % 2 != 0)) {
    error("fat_tree_k", "fat-tree arity must be an even integer >= 2");
  }
  if (!(cfg.access_bps > 0.0)) error("access_gbps", "access link rate must be > 0");
  if (!(cfg.core_bps > 0.0)) error("core_gbps", "core link rate must be > 0");
  if (cfg.block_size == 0) error("block_size", "byte size must be > 0");
  if (cfg.replication < 1) error("replication", "replication factor must be >= 1");
  const std::size_t workers = cfg.num_workers();
  if (workers != 0 && cfg.replication > workers) {
    error("replication",
          util::format("replication %u exceeds the cluster size (%zu workers)", cfg.replication,
                       workers),
          "lower replication or add racks/hosts");
  }
  if (cfg.containers_per_node < 1) error("containers", "containers per node must be >= 1");
  if (!(cfg.slowstart >= 0.0 && cfg.slowstart <= 1.0)) {
    error("slowstart", "slowstart must be in [0, 1]",
          "it is the map-completion fraction that releases reducers");
  }
  if (!(cfg.locality_delay_s >= 0.0)) error("locality_delay_s", "must be >= 0");
  if (!(cfg.map_output_compress_ratio > 0.0)) {
    error("compress_ratio", "map-output compression ratio must be > 0");
  }
  if (!(cfg.straggler_fraction >= 0.0 && cfg.straggler_fraction <= 1.0)) {
    error("straggler_fraction", "must be in [0, 1]");
  }
}

util::Json cluster_config_to_json(const ClusterConfig& cfg) {
  util::Json doc = util::Json::object();
  doc["topology"] = util::Json(topology_kind_name(cfg.topology));
  doc["racks"] = util::Json(static_cast<std::uint64_t>(cfg.racks));
  doc["hosts_per_rack"] = util::Json(static_cast<std::uint64_t>(cfg.hosts_per_rack));
  if (cfg.topology == TopologyKind::kFatTree) {
    doc["fat_tree_k"] = util::Json(static_cast<std::uint64_t>(cfg.fat_tree_k));
  }
  doc["access_gbps"] = util::Json(cfg.access_bps / 1e9);
  doc["core_gbps"] = util::Json(cfg.core_bps / 1e9);
  doc["block_size"] = util::Json(cfg.block_size);
  doc["replication"] = util::Json(static_cast<std::uint64_t>(cfg.replication));
  doc["containers"] = util::Json(static_cast<std::uint64_t>(cfg.containers_per_node));
  doc["slowstart"] = util::Json(cfg.slowstart);
  doc["locality_delay_s"] = util::Json(cfg.locality_delay_s);
  doc["compress_ratio"] = util::Json(cfg.map_output_compress_ratio);
  doc["straggler_fraction"] = util::Json(cfg.straggler_fraction);
  doc["speculative"] = util::Json(cfg.speculative_execution);
  return doc;
}

util::Json fault_plan_to_json(const FaultPlan& plan) {
  util::Json array = util::Json::array();
  for (const auto& event : plan.events) {
    util::Json entry = util::Json::object();
    entry["kind"] = util::Json(fault_kind_name(event.kind));
    entry["worker"] = util::Json(static_cast<std::uint64_t>(event.worker));
    entry["at"] = util::Json(event.at);
    if (event.kind != FaultKind::kCrash) entry["duration"] = util::Json(event.duration);
    if (event.kind == FaultKind::kDegradeLink || event.kind == FaultKind::kSlowNode) {
      entry["factor"] = util::Json(event.factor);
    }
    array.push_back(std::move(entry));
  }
  return array;
}

}  // namespace keddah::hadoop

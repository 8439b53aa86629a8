#include "hadoop/faults.h"

#include <cmath>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/strings.h"

namespace keddah::hadoop {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kOutage:
      return "outage";
    case FaultKind::kDegradeLink:
      return "degrade_link";
    case FaultKind::kSlowNode:
      return "slow_node";
  }
  return "unknown";
}

FaultKind fault_kind_from_name(const std::string& name) {
  if (name == "crash") return FaultKind::kCrash;
  if (name == "outage") return FaultKind::kOutage;
  if (name == "degrade_link") return FaultKind::kDegradeLink;
  if (name == "slow_node") return FaultKind::kSlowNode;
  throw std::invalid_argument("faults: unknown kind '" + name +
                              "' (want crash|outage|degrade_link|slow_node)");
}

void check_fault_event(const FaultEvent& event, std::size_t num_workers,
                       const std::string& prefix, util::Diagnostics& diagnostics) {
  const auto error = [&](const char* field, std::string message, std::string hint = "") {
    diagnostics.error(prefix + field, std::move(message), std::move(hint));
  };
  if (event.worker == 0) {
    error(".worker", "worker 0 co-hosts the master and cannot be faulted",
          "fault a worker index >= 1");
  } else if (num_workers != 0 && event.worker >= num_workers) {
    error(".worker",
          util::format("worker %zu does not exist (cluster has workers 0..%zu)", event.worker,
                       num_workers - 1),
          "use an index below the cluster size or grow the cluster");
  }
  if (!(event.at >= 0.0)) error(".at", "injection time must be >= 0");
  if (event.kind == FaultKind::kCrash) {
    if (event.duration != 0.0) {
      diagnostics.warning(prefix + ".duration", "crashes are permanent; 'duration' is ignored",
                          "use kind \"outage\" for a transient failure");
    }
    return;
  }
  if (!(event.duration > 0.0)) error(".duration", "transient faults need a window length > 0");
  if (event.kind == FaultKind::kDegradeLink && !(event.factor > 0.0 && event.factor < 1.0)) {
    error(".factor", "degrade_link factor must be in (0, 1)",
          "it multiplies the access-link capacity");
  }
  if (event.kind == FaultKind::kSlowNode && !(event.factor > 1.0)) {
    error(".factor", "slow_node factor must be > 1", "it multiplies compute time");
  }
}

void validate_fault_plan(const FaultPlan& plan, std::size_t num_workers,
                         const std::string& context) {
  util::Diagnostics diagnostics(context);
  for (std::size_t i = 0; i < plan.events.size(); ++i) {
    check_fault_event(plan.events[i], num_workers, util::format("faults[%zu]", i), diagnostics);
  }
  diagnostics.throw_first_error();
}

FaultPlan parse_fault_plan(const util::Json& array, util::Diagnostics& diagnostics,
                           const std::string& key, std::size_t num_workers, double horizon) {
  FaultPlan plan;
  if (!array.is_array()) {
    diagnostics.error(key, "must be an array of fault events");
    return plan;
  }
  std::vector<std::string> kinds;
  for (const auto kind : {FaultKind::kCrash, FaultKind::kOutage, FaultKind::kDegradeLink,
                          FaultKind::kSlowNode}) {
    kinds.emplace_back(fault_kind_name(kind));
  }
  // Per entry, for the dead-worker pass: the worker index as written (NaN
  // when it is not a number) and the injection time.
  std::vector<std::pair<double, double>> targets;
  struct Crash {
    std::size_t worker;
    double at;
    std::size_t index;
  };
  std::vector<Crash> crashes;
  std::set<std::string> seen;
  for (std::size_t i = 0; i < array.size(); ++i) {
    const std::string prefix = util::format("%s[%zu]", key.c_str(), i);
    util::JsonReader r(array.at(i), prefix, diagnostics);
    targets.emplace_back(std::nan(""), 0.0);
    if (!r.expect_object("must be an object")) continue;
    FaultEvent event;
    const std::size_t errors = diagnostics.num_errors();
    event.kind = static_cast<FaultKind>(r.name("kind", kinds, 0, "fault kind"));
    const bool kind_ok = diagnostics.num_errors() == errors;
    const util::Json* worker_value = r.find("worker");
    const double worker = r.number("worker", -1.0);
    event.at = r.number("at", 0.0);
    event.duration = r.number("duration", 0.0);
    event.factor = r.number("factor", 0.0);
    if (worker_value != nullptr && worker_value->is_number()) targets.back() = {worker, event.at};
    if (!kind_ok) continue;
    if (worker_value == nullptr) {
      r.error("worker", "missing required key", "index into the cluster's worker list");
      continue;
    }
    if (worker < 0.0 || std::fmod(worker, 1.0) != 0.0 || worker >= 0x1p63) {
      r.error("worker", "must be a non-negative integer");
      continue;
    }
    event.worker = static_cast<std::size_t>(worker);
    check_fault_event(event, num_workers, prefix, diagnostics);
    if (event.kind == FaultKind::kCrash) crashes.push_back({event.worker, event.at, i});
    if (horizon > 0.0 && event.at + event.duration > horizon) {
      diagnostics.error(prefix,
                        util::format("fault window [%g, %g] extends past the scenario horizon "
                                     "of %g s",
                                     event.at, event.at + event.duration, horizon),
                        "shorten the window or raise the horizon");
    }
    const std::string kind = fault_kind_name(event.kind);
    if (!seen.insert(util::format("%s w%zu at%g", kind.c_str(), event.worker, event.at)).second) {
      diagnostics.error(prefix,
                        util::format("duplicate fault: %s on worker %zu at %g s already scheduled",
                                     kind.c_str(), event.worker, event.at),
                        "remove the repeated entry");
    }
    plan.events.push_back(event);
  }
  // Nothing can be injected into a permanently crashed node: a crash at t
  // followed by any event on the same worker at a later time never fires
  // (and a "recovery" the author expected silently does not happen).
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto [worker, at] = targets[i];
    for (const auto& crash : crashes) {
      if (crash.index != i && static_cast<double>(crash.worker) == worker && crash.at <= at) {
        diagnostics.error(util::format("%s[%zu]", key.c_str(), i),
                          util::format("worker %zu is permanently crashed by %s[%zu] at %g s; "
                                       "this event never takes effect",
                                       crash.worker, key.c_str(), crash.index, crash.at),
                          "use kind \"outage\" for a recoverable failure, or retarget the event");
        break;
      }
    }
  }
  return plan;
}

FaultPlan parse_fault_plan(const util::Json& array, const std::string& context,
                           std::size_t num_workers) {
  return util::parse_or_throw(
      context, [&](util::Diagnostics& d) { return parse_fault_plan(array, d, "$", num_workers); });
}

void audit_fault_stats(const FaultStats& stats) {
  const std::uint64_t injections =
      stats.crashes + stats.outages + stats.link_degradations + stats.slow_nodes;
  if (stats.aborted_bytes.value() > 0.0 && stats.aborted_flows == 0) {
    throw util::AuditError("fault stats: aborted bytes without any aborted flow");
  }
  if (!(stats.fetch_backoff_s >= 0.0) || !std::isfinite(stats.fetch_backoff_s)) {
    throw util::AuditError("fault stats: fetch backoff must be finite and >= 0, got " +
                           std::to_string(stats.fetch_backoff_s));
  }
  if (injections == 0) {
    // Recovery work can only be caused by an injected fault; a clean run
    // must report an all-zero recovery ledger.
    if (stats.aborted_flows != 0 || stats.fetch_retries != 0 ||
        stats.fetch_failure_reruns != 0 || stats.map_reruns != 0 ||
        stats.reducer_restarts != 0 || stats.pipeline_rebuilds != 0 ||
        stats.hdfs_read_retries != 0 || stats.rereplications != 0) {
      throw util::AuditError("fault stats: recovery counters nonzero without any injected fault");
    }
  }
}

}  // namespace keddah::hadoop

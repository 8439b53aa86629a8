#include "hadoop/joblog.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>

#include "capture/trace.h"
#include "util/strings.h"

namespace keddah::hadoop {

const char* task_event_kind_name(TaskEvent::Kind kind) {
  switch (kind) {
    case TaskEvent::Kind::kJobSubmit:
      return "job_submit";
    case TaskEvent::Kind::kJobFinish:
      return "job_finish";
    case TaskEvent::Kind::kMapStart:
      return "map_start";
    case TaskEvent::Kind::kMapFinish:
      return "map_finish";
    case TaskEvent::Kind::kReduceStart:
      return "reduce_start";
    case TaskEvent::Kind::kReduceFinish:
      return "reduce_finish";
  }
  return "unknown";
}

namespace {

constexpr const char* kColumns[] = {"time", "job_id", "kind", "node", "task_index"};

TaskEvent::Kind read_kind(const util::CsvRowReader& row) {
  const std::string& cell = row.text("kind");
  for (int k = 0; k <= 5; ++k) {
    const auto kind = static_cast<TaskEvent::Kind>(k);
    if (cell == task_event_kind_name(kind)) return kind;
  }
  row.fail("kind", "unknown event kind '" + cell + "'");
}

/// A task's host id, or kInvalidNode for job-level events.
net::NodeId read_node(const util::CsvRowReader& row) {
  const auto id = static_cast<std::uint32_t>(row.integer("node", net::kInvalidNode.value()));
  if (id != net::kInvalidNode.value() && id >= capture::Trace::kMaxCsvNodes) {
    row.fail("node", util::format("%u is neither a node id in 0..%u nor %u (a job-level event)",
                                  id, capture::Trace::kMaxCsvNodes - 1,
                                  net::kInvalidNode.value()));
  }
  return net::NodeId(id);
}

}  // namespace

std::vector<TaskEvent> JobHistoryLog::for_job(std::uint32_t job_id) const {
  std::vector<TaskEvent> out;
  for (const auto& e : events_) {
    if (e.job_id == job_id) out.push_back(e);
  }
  return out;
}

std::vector<std::uint32_t> JobHistoryLog::job_ids() const {
  std::set<std::uint32_t> ids;
  for (const auto& e : events_) ids.insert(e.job_id);
  return {ids.begin(), ids.end()};
}

bool JobHistoryLog::job_window(std::uint32_t job_id, double* start, double* end) const {
  bool saw_start = false;
  bool saw_end = false;
  for (const auto& e : events_) {
    if (e.job_id != job_id) continue;
    if (e.kind == TaskEvent::Kind::kJobSubmit) {
      *start = e.time;
      saw_start = true;
    } else if (e.kind == TaskEvent::Kind::kJobFinish) {
      *end = e.time;
      saw_end = true;
    }
  }
  return saw_start && saw_end;
}

bool JobHistoryLog::task_active_on(std::uint32_t job_id, net::NodeId node, double t,
                                   double slack_s) const {
  // Match (job, node, task ordinal, task type) start/finish pairs. Events
  // are recorded in time order per task, so a linear scan pairing starts
  // with the next finish of the same key suffices.
  struct Key {
    bool map;
    std::uint32_t index;
    net::NodeId node;
    bool operator<(const Key& o) const {
      if (map != o.map) return map < o.map;
      if (index != o.index) return index < o.index;
      return node < o.node;
    }
  };
  std::map<Key, double> open;  // start times of currently-unmatched tasks
  for (const auto& e : events_) {
    if (e.job_id != job_id || e.node != node) continue;
    switch (e.kind) {
      case TaskEvent::Kind::kMapStart:
        open[{true, e.task_index, e.node}] = e.time;
        break;
      case TaskEvent::Kind::kReduceStart:
        open[{false, e.task_index, e.node}] = e.time;
        break;
      case TaskEvent::Kind::kMapFinish:
      case TaskEvent::Kind::kReduceFinish: {
        const Key key{e.kind == TaskEvent::Kind::kMapFinish, e.task_index, e.node};
        const auto it = open.find(key);
        if (it != open.end()) {
          if (t >= it->second - slack_s && t <= e.time + slack_s) return true;
          open.erase(it);
        }
        break;
      }
      default:
        break;
    }
  }
  // Tasks that never finished (e.g. killed by a failure): active from start.
  for (const auto& [key, start] : open) {
    (void)key;
    if (t >= start - slack_s) return true;
  }
  return false;
}

util::CsvTable JobHistoryLog::to_csv() const {
  util::CsvTable table(std::vector<std::string>(std::begin(kColumns), std::end(kColumns)));
  for (const auto& e : events_) {
    table.add_row({util::format("%.9f", e.time), std::to_string(e.job_id),
                   task_event_kind_name(e.kind), std::to_string(e.node),
                   std::to_string(e.task_index)});
  }
  return table;
}

JobHistoryLog JobHistoryLog::from_csv(const util::CsvTable& table, const std::string& source) {
  util::CsvRowReader row(table, source, kColumns);
  JobHistoryLog log;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    row.seek(i);
    TaskEvent e;
    e.time = row.number("time");
    e.job_id = static_cast<std::uint32_t>(row.integer("job_id", 0xffffffffu));
    e.kind = read_kind(row);
    e.node = read_node(row);
    e.task_index = static_cast<std::uint32_t>(row.integer("task_index", 0xffffffffu));
    log.add(e);
  }
  return log;
}

void JobHistoryLog::save(const std::string& path) const { to_csv().save(path); }

JobHistoryLog JobHistoryLog::load(const std::string& path) {
  return from_csv(util::CsvTable::load(path), path);
}

}  // namespace keddah::hadoop

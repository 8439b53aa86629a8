// Job history log: the timeline the MapReduce framework writes about task
// placement and lifetime. Keddah's capture stage correlates pcap flows with
// these logs to attribute traffic to jobs; we emit the same events from the
// emulator so that correlation (capture/attribution.h) can be exercised and
// scored against ground truth.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.h"
#include "util/csv.h"

namespace keddah::hadoop {

/// One job-history event.
struct TaskEvent {
  enum class Kind : std::uint8_t {
    kJobSubmit = 0,
    kJobFinish = 1,
    kMapStart = 2,
    kMapFinish = 3,
    kReduceStart = 4,
    kReduceFinish = 5,
  };

  double time = 0.0;
  std::uint32_t job_id = 0;
  Kind kind = Kind::kJobSubmit;
  /// Host the task ran on (kInvalidNode for job-level events).
  net::NodeId node = net::kInvalidNode;
  /// Task index within the job (map or reduce ordinal; 0 for job events).
  std::uint32_t task_index = 0;
};

/// Stable event-kind name used in CSV ("job_submit", "map_start", ...).
const char* task_event_kind_name(TaskEvent::Kind kind);

/// An append-only job history, queryable by job and time.
class JobHistoryLog {
 public:
  void add(TaskEvent event) { events_.push_back(event); }

  const std::vector<TaskEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  void clear() { events_.clear(); }

  /// Events of one job, in record order.
  std::vector<TaskEvent> for_job(std::uint32_t job_id) const;

  /// Job ids present, sorted.
  std::vector<std::uint32_t> job_ids() const;

  /// [submit, finish] window of a job; returns false when unknown.
  bool job_window(std::uint32_t job_id, double* start, double* end) const;

  /// True if job `job_id` had a task (map or reduce) running on `node` at
  /// time `t` (interval [task start, task finish], with `slack_s` padding
  /// on both sides — real logs and captures have clock skew).
  bool task_active_on(std::uint32_t job_id, net::NodeId node, double t,
                      double slack_s = 0.5) const;

  /// CSV persistence (columns: time, job_id, kind, node, task_index).
  util::CsvTable to_csv() const;
  /// Reads rows through util::CsvRowReader and rejects each defect as
  /// `source: row N: column: message`: a time that is not finite and
  /// >= 0, a job_id or task_index outside uint32, a node that is neither
  /// an id below capture::Trace::kMaxCsvNodes nor kInvalidNode, an unknown
  /// event kind, or a missing column.
  static JobHistoryLog from_csv(const util::CsvTable& table,
                                const std::string& source = "history");
  void save(const std::string& path) const;
  /// Loads a CSV file; errors name `path`.
  static JobHistoryLog load(const std::string& path);

 private:
  std::vector<TaskEvent> events_;
};

}  // namespace keddah::hadoop

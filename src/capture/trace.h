// A Trace is the unit the modelling stage consumes: the set of flow records
// captured during one job run (or a concatenation of runs), with filtering
// and aggregation helpers, and CSV persistence.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "capture/flow_record.h"
#include "util/csv.h"

namespace keddah::capture {

/// Per-traffic-class aggregate counters.
struct ClassStats {
  std::size_t flows = 0;
  double bytes = 0.0;
};

/// An ordered collection of captured flows.
class Trace {
 public:
  Trace() = default;
  explicit Trace(std::vector<FlowRecord> records) : records_(std::move(records)) {}

  void add(FlowRecord record) { records_.push_back(std::move(record)); }
  void append(const Trace& other);

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<FlowRecord>& records() const { return records_; }
  const FlowRecord& operator[](std::size_t i) const { return records_.at(i); }

  /// Subset with the given *classified* traffic class (port classifier).
  Trace filter_kind(net::FlowKind kind) const;

  /// Subset belonging to one job.
  Trace filter_job(std::uint32_t job_id) const;

  /// Subset with start time in [t0, t1).
  Trace filter_window(double t0, double t1) const;

  /// Flow sizes in bytes, in record order.
  std::vector<double> sizes() const;

  /// Flow start times, in record order.
  std::vector<double> start_times() const;

  /// Flow durations.
  std::vector<double> durations() const;

  double total_bytes() const;

  /// Earliest start / latest end over the trace (0/0 when empty).
  double first_start() const;
  double last_end() const;

  /// Aggregate counters per classified class, indexed by FlowKind.
  std::array<ClassStats, net::kNumFlowKinds> class_stats() const;

  /// Aggregate throughput time series: bytes transferred per `bin_s` bucket
  /// between first_start() and last_end(), assuming each flow transfers at
  /// uniform rate over its lifetime (the standard flow-to-timeseries
  /// smearing). Returns bytes per bin.
  std::vector<double> throughput_series(double bin_s) const;

  /// CSV persistence (columns match FlowRecord fields).
  util::CsvTable to_csv() const;
  static Trace from_csv(const util::CsvTable& table);
  void save(const std::string& path) const;
  static Trace load(const std::string& path);


 private:
  std::vector<FlowRecord> records_;
};

}  // namespace keddah::capture

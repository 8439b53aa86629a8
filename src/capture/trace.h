// A Trace is the unit the modelling stage consumes: the flow records one
// capture saw and the table naming their endpoints, with filtering and
// aggregation helpers, and CSV persistence.
#pragma once

#include <array>
#include <memory>
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

/// Node names indexed by NodeId, built once and then shared, unchanged, by
/// a trace, the traces its filter_* calls return and a spill writer.
using NameTable = std::shared_ptr<const std::vector<std::string>>;

/// An ordered collection of captured flows plus the table naming their
/// endpoints.
class Trace {
 public:
  Trace() = default;
  explicit Trace(NameTable names) : names_(std::move(names)) {}

  void add(const FlowRecord& record) { records_.push_back(record); }

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<FlowRecord>& records() const { return records_; }
  const FlowRecord& operator[](std::size_t i) const { return records_.at(i); }

  /// Name of node `id`; throws std::out_of_range when `id` is past the table.
  const std::string& name(net::NodeId id) const;
  const NameTable& names() const { return names_; }

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

  /// CSV persistence (FlowRecord's fields plus the `src`/`dst` names).
  util::CsvTable to_csv() const;
  /// Rebuilds a trace and its name table from `src`/`src_id`/`dst`/`dst_id`.
  /// Throws std::runtime_error "<source>: row N: <column>: <message>" (rows
  /// count data rows from 1) on a malformed number, a negative or non-finite
  /// bytes/start/end, end before start, a port, job_id or node id out of
  /// range (ids stay below kMaxCsvNodes), an unknown truth class, an empty
  /// name, or one id given two names.
  static Trace from_csv(const util::CsvTable& table, const std::string& source = "csv");
  void save(const std::string& path) const;
  static Trace load(const std::string& path);

  /// Node ids a CSV trace may use. The loaded name table is indexed by id,
  /// so the bound keeps one stray id from sizing it in gigabytes; it is ~80x
  /// the node count of the largest fabric the simulator builds.
  static constexpr std::uint32_t kMaxCsvNodes = 1u << 20;

 private:
  std::vector<FlowRecord> records_;
  NameTable names_;
};

}  // namespace keddah::capture

#include "capture/trace.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <iterator>
#include <stdexcept>

#include "util/diagnostic.h"
#include "util/strings.h"

namespace keddah::capture {

net::FlowKind classify_by_ports(const FlowRecord& record) {
  using net::FlowKind;
  namespace ports = net::ports;
  if (record.src_port == ports::kDataNodeXfer) return FlowKind::kHdfsRead;
  if (record.dst_port == ports::kDataNodeXfer) return FlowKind::kHdfsWrite;
  if (record.src_port == ports::kShuffle || record.dst_port == ports::kShuffle) {
    return FlowKind::kShuffle;
  }
  for (const std::uint16_t p : {record.src_port, record.dst_port}) {
    if (p == ports::kNameNodeRpc || p == ports::kRmScheduler || p == ports::kRmTracker) {
      return FlowKind::kControl;
    }
  }
  return FlowKind::kOther;
}

const std::string& Trace::name(net::NodeId id) const {
  if (!names_ || id >= names_->size()) throw std::out_of_range("trace: node has no name");
  return (*names_)[id];
}

Trace Trace::filter_kind(net::FlowKind kind) const {
  Trace out(names_);
  for (const auto& r : records_) {
    if (classify_by_ports(r) == kind) out.add(r);
  }
  return out;
}

Trace Trace::filter_job(std::uint32_t job_id) const {
  Trace out(names_);
  for (const auto& r : records_) {
    if (r.job_id == job_id) out.add(r);
  }
  return out;
}

Trace Trace::filter_window(double t0, double t1) const {
  Trace out(names_);
  for (const auto& r : records_) {
    if (r.start >= t0 && r.start < t1) out.add(r);
  }
  return out;
}

std::vector<double> Trace::sizes() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.bytes);
  return out;
}

std::vector<double> Trace::start_times() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.start);
  return out;
}

std::vector<double> Trace::durations() const {
  std::vector<double> out;
  out.reserve(records_.size());
  for (const auto& r : records_) out.push_back(r.duration());
  return out;
}

double Trace::total_bytes() const {
  double total = 0.0;
  for (const auto& r : records_) total += r.bytes;
  return total;
}

double Trace::first_start() const {
  double t = 0.0;
  bool first = true;
  for (const auto& r : records_) {
    if (first || r.start < t) t = r.start;
    first = false;
  }
  return t;
}

double Trace::last_end() const {
  double t = 0.0;
  for (const auto& r : records_) t = std::max(t, r.end);
  return t;
}

std::array<ClassStats, net::kNumFlowKinds> Trace::class_stats() const {
  std::array<ClassStats, net::kNumFlowKinds> out{};
  for (const auto& r : records_) {
    auto& s = out[static_cast<std::size_t>(classify_by_ports(r))];
    ++s.flows;
    s.bytes += r.bytes;
  }
  return out;
}

std::vector<double> Trace::throughput_series(double bin_s) const {
  std::vector<double> bins;
  if (records_.empty() || bin_s <= 0.0) return bins;
  const double t0 = first_start();
  const double t1 = last_end();
  const auto nbins = static_cast<std::size_t>(std::ceil((t1 - t0) / bin_s)) + 1;
  bins.assign(nbins, 0.0);
  for (const auto& r : records_) {
    const double dur = r.duration();
    if (dur <= 0.0) {
      const auto b = static_cast<std::size_t>((r.start - t0) / bin_s);
      bins[std::min(b, nbins - 1)] += r.bytes;
      continue;
    }
    const double rate = r.bytes / dur;  // bytes per second, uniform smear
    double t = r.start;
    while (t < r.end) {
      const auto b = static_cast<std::size_t>((t - t0) / bin_s);
      const double bin_end = t0 + (static_cast<double>(b) + 1.0) * bin_s;
      const double seg = std::min(bin_end, r.end) - t;
      bins[std::min(b, nbins - 1)] += rate * seg;
      t += seg;
      if (seg <= 0.0) break;  // numerical guard
    }
  }
  return bins;
}

namespace {

/// The trace CSV's columns, in file order.
constexpr const char* kColumns[] = {"src",   "dst",   "src_id", "dst_id", "src_port", "dst_port",
                                    "bytes", "start", "end",    "job_id", "truth"};

/// The traffic class named in `column`.
net::FlowKind read_kind(const util::CsvRowReader& row, const char* column) {
  const std::string& cell = row.text(column);
  const auto kind = net::flow_kind_from_name(cell);
  if (!kind) row.fail(column, "unknown traffic class '" + cell + "'");
  return *kind;
}

/// Node id from `id_column`, recording its name from `name_column` in
/// `names`; a second, different name for the same id is rejected.
net::NodeId read_node(const util::CsvRowReader& row, const char* id_column,
                      const char* name_column, std::vector<std::string>& names) {
  const auto id = static_cast<std::uint32_t>(row.integer(id_column, Trace::kMaxCsvNodes - 1));
  const std::string& cell = row.text(name_column);
  if (cell.empty()) row.fail(name_column, "empty node name");
  if (id >= names.size()) names.resize(id + 1);
  if (names[id].empty()) {
    names[id] = cell;
  } else if (names[id] != cell) {
    row.fail(name_column, util::format("node %u is '%s' here but '%s' in an earlier row", id,
                                       cell.c_str(), names[id].c_str()));
  }
  return net::NodeId(id);
}

}  // namespace

util::CsvTable Trace::to_csv() const {
  util::CsvTable table(std::vector<std::string>(std::begin(kColumns), std::end(kColumns)));
  for (const auto& r : records_) {
    table.add_row({name(r.src_id), name(r.dst_id), std::to_string(r.src_id),
                   std::to_string(r.dst_id), std::to_string(r.src_port),
                   std::to_string(r.dst_port), util::format("%.3f", r.bytes),
                   util::format("%.9f", r.start), util::format("%.9f", r.end),
                   std::to_string(r.job_id), net::flow_kind_name(r.truth)});
  }
  return table;
}

Trace Trace::from_csv(const util::CsvTable& table, const std::string& source) {
  util::CsvRowReader row(table, source, kColumns);
  auto names = std::make_shared<std::vector<std::string>>();
  Trace out(names);  // the table is complete before the trace is returned
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    row.seek(i);
    FlowRecord r;
    r.src_id = read_node(row, "src_id", "src", *names);
    r.dst_id = read_node(row, "dst_id", "dst", *names);
    r.src_port = static_cast<std::uint16_t>(row.integer("src_port", 65535));
    r.dst_port = static_cast<std::uint16_t>(row.integer("dst_port", 65535));
    r.bytes = row.number("bytes");
    r.start = row.number("start");
    r.end = row.number("end");
    if (r.end < r.start) {
      row.fail("end", util::format("%.9f is before start %.9f", r.end, r.start));
    }
    r.job_id = static_cast<std::uint32_t>(row.integer("job_id", 0xffffffffu));
    r.truth = read_kind(row, "truth");
    out.add(r);
  }
  return out;
}

void Trace::save(const std::string& path) const { to_csv().save(path); }

Trace Trace::load(const std::string& path) { return from_csv(util::CsvTable::load(path), path); }

}  // namespace keddah::capture

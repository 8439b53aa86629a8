#include "capture/trace.h"

#include <algorithm>
#include <cmath>

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

void Trace::append(const Trace& other) {
  records_.insert(records_.end(), other.records_.begin(), other.records_.end());
}

Trace Trace::filter_kind(net::FlowKind kind) const {
  Trace out;
  for (const auto& r : records_) {
    if (classify_by_ports(r) == kind) out.add(r);
  }
  return out;
}

Trace Trace::filter_job(std::uint32_t job_id) const {
  Trace out;
  for (const auto& r : records_) {
    if (r.job_id == job_id) out.add(r);
  }
  return out;
}

Trace Trace::filter_window(double t0, double t1) const {
  Trace out;
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

util::CsvTable Trace::to_csv() const {
  util::CsvTable table({"src", "dst", "src_id", "dst_id", "src_port", "dst_port", "bytes", "start",
                        "end", "job_id", "truth"});
  for (const auto& r : records_) {
    table.add_row({r.src, r.dst, std::to_string(r.src_id), std::to_string(r.dst_id),
                   std::to_string(r.src_port), std::to_string(r.dst_port),
                   util::format("%.3f", r.bytes), util::format("%.9f", r.start),
                   util::format("%.9f", r.end), std::to_string(r.job_id),
                   net::flow_kind_name(r.truth)});
  }
  return table;
}

namespace {
net::FlowKind kind_from_name(const std::string& name) {
  for (std::size_t i = 0; i < net::kNumFlowKinds; ++i) {
    const auto kind = static_cast<net::FlowKind>(i);
    if (name == net::flow_kind_name(kind)) return kind;
  }
  return net::FlowKind::kOther;
}
}  // namespace

Trace Trace::from_csv(const util::CsvTable& table) {
  Trace out;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    FlowRecord r;
    r.src = table.cell(i, "src");
    r.dst = table.cell(i, "dst");
    r.src_id = static_cast<net::NodeId>(table.cell_int(i, "src_id"));
    r.dst_id = static_cast<net::NodeId>(table.cell_int(i, "dst_id"));
    r.src_port = static_cast<std::uint16_t>(table.cell_int(i, "src_port"));
    r.dst_port = static_cast<std::uint16_t>(table.cell_int(i, "dst_port"));
    r.bytes = table.cell_double(i, "bytes");
    r.start = table.cell_double(i, "start");
    r.end = table.cell_double(i, "end");
    r.job_id = static_cast<std::uint32_t>(table.cell_int(i, "job_id"));
    r.truth = kind_from_name(table.cell(i, "truth"));
    out.add(std::move(r));
  }
  return out;
}

void Trace::save(const std::string& path) const { to_csv().save(path); }

Trace Trace::load(const std::string& path) { return from_csv(util::CsvTable::load(path)); }

}  // namespace keddah::capture

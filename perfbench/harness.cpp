#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <stdexcept>

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t run) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.parent = tracer_.current_;
  span.run = run;
  span.start_s = seconds_since(tracer_.epoch_);
  tracer_.spans_.push_back(std::move(span));
  index_ = static_cast<int>(tracer_.spans_.size()) - 1;
  saved_parent_ = tracer_.current_;
  tracer_.current_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].end_s = seconds_since(tracer_.epoch_);
  tracer_.current_ = saved_parent_;
}

void Tracer::Scope::count(const char* name, double value) {
  if (index_ < 0) return;
  tracer_.spans_[static_cast<std::size_t>(index_)].counts.emplace_back(name, value);
}

void Tracer::add(const char* name, std::uint64_t run, Clock::time_point start,
                 Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.parent = current_;
  span.run = run;
  span.start_s = seconds_between(epoch_, start);
  span.end_s = seconds_between(epoch_, end);
  spans_.push_back(std::move(span));
}


std::vector<double> Tracer::per_run(const std::string& name, const std::string& count) const {
  std::map<std::uint64_t, double> sums;
  for (const Span& span : spans_) {
    if (span.name != name) continue;
    double& total = sums[span.run];
    if (count.empty()) {
      total += span.end_s - span.start_s;
      continue;
    }
    for (const auto& [key, value] : span.counts) {
      if (key == count) total += value;
    }
  }
  std::vector<double> out;
  for (const auto& [run, total] : sums) out.push_back(total);
  return out;
}

void Tracer::write(const std::string& path, const std::string& workload,
                   std::uint64_t seed) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  char buf[512];
  out << "{\"workload\": \"" << workload << "\", \"seed\": " << seed << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"id\": %zu, \"name\": \"%s\", \"run\": %llu, \"parent\": %d, "
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"counts\": {",
                  i, s.name.c_str(), static_cast<unsigned long long>(s.run), s.parent, s.start_s,
                  s.end_s);
    out << buf;
    for (std::size_t c = 0; c < s.counts.size(); ++c) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": %.17g", c ? ", " : "",
                    s.counts[c].first.c_str(), s.counts[c].second);
      out << buf;
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

void Result::operation(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"whatif_p50_ms", "ms"},
      {"whatif_p99_ms", "ms"},
      {"whatif_qps", "1/s"},
      {"fidelity_volume_err", "ratio"},
      {"fidelity_size_ks", "ks_d"},
  };
  return kCatalogue;
}

const std::vector<std::pair<std::string, std::string>>& layer_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue = {
      {"trace.overhead_s", "s"},
      {"trace.spans", "count"},
      {"capture.wall_s", "s"},
      {"capture.flows", "count"},
      {"capture.flows_per_s", "1/s"},
      {"train.wall_s", "s"},
      {"train.runs", "count"},
      {"validate.wall_s", "s"},
      {"validate.generated_flows", "count"},
      {"generate.wall_s", "s"},
      {"generate.flows", "count"},
      {"replay.wall_s", "s"},
      {"replay.flows_per_s", "1/s"},
      {"replay.makespan_s", "sim_s"},
      {"net.reshares", "count"},
      {"net.links_per_reshare", "count"},
      {"net.flows_visited", "count"},
      {"net.flows_rerated", "count"},
      {"net.heap_ops", "count"},
      {"net.flows_per_s", "1/s"},
      {"sim.run_s", "s"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"arena.peak_live", "count"},
      {"arena.slot_reuses", "count"},
      {"arena.compactions", "count"},
      {"topology.build_s", "s"},
      {"schedule.build_s", "s"},
      {"spill.finalize_s", "s"},
      {"spill.records", "count"},
      {"spill.read_s", "s"},
      {"json.parse_us", "us"},
      {"lint.scenario_us", "us"},
      {"api.parse_us", "us"},
      {"api.serialize_us", "us"},
      {"serve.handle_hit_us", "us"},
      {"http.overhead_us", "us"},
      {"scenario.run_ms", "ms"},
      {"serve.handle_miss_ms", "ms"},
      {"serve.requests", "count"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.admission_shed", "count"},
      {"serve.transport_errors", "count"},
  };
  return kCatalogue;
}

keddah::hadoop::ClusterConfig testbed() {
  keddah::hadoop::ClusterConfig cfg;
  cfg.racks = 4;
  cfg.hosts_per_rack = 4;
  cfg.access_bps = 1.0e9;
  cfg.core_bps = 10.0e9;
  cfg.block_size = 128ull << 20;
  cfg.replication = 3;
  cfg.containers_per_node = 4;
  cfg.locality_delay_s = 2.0;
  return cfg;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double sum(const std::vector<double>& values) {
  return std::accumulate(values.begin(), values.end(), 0.0);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : sum(values) / static_cast<double>(values.size());
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace perfbench

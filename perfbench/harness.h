// Shared harness of the end-to-end benchmark: options, the metric
// catalogue, the span tracer, operation accounting and small statistics.
//
// Every workload fills one Result. Untraced runs report the end-to-end
// metrics; traced runs report the per-layer metrics, read from the spans
// the workload recorded around its calls into each keddah layer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hadoop/config.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) { return seconds_between(t0, Clock::now()); }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed window; every workload repeats its unit of work
  /// until the window is spent (and always at least the minimum count the
  /// workload needs for its repeat checks).
  double seconds = 10.0;
  bool trace = false;
  /// Directory for spill files and the span dump (inside the checkout).
  std::string work_dir = ".";
};

/// Records spans around calls into the program's layers. Disabled tracers
/// read no clock and store nothing, so untraced runs pay nothing.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    /// Index of the enclosing span, -1 at top level.
    int parent = -1;
    /// Identifier shared by every span of one unit of work (one toolchain
    /// pass, one replay, one request).
    std::uint64_t run = 0;
    std::vector<std::pair<std::string, double>> counts;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t run);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Attaches a count to this span (no-op when tracing is off).
    void count(const char* name, double value);

   private:
    Tracer& tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  bool enabled() const { return enabled_; }
  /// Traced runs alternate traced and untraced repetitions so the tracing
  /// overhead is measured in the same process.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  Scope scope(const char* name, std::uint64_t run) { return Scope(*this, name, run); }
  /// Records a span already timed by the caller (no-op when tracing is off).
  void add(const char* name, std::uint64_t run, Clock::time_point start, Clock::time_point end);

  /// Per run id, the summed durations of the spans with this name (or, when
  /// `count` is given, the summed values of that count), in run-id order.
  std::vector<double> per_run(const std::string& name, const std::string& count = "") const;
  std::size_t size() const { return spans_.size(); }

  /// Writes all spans as one JSON document. Called once, at exit.
  void write(const std::string& path, const std::string& workload, std::uint64_t seed) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int current_ = -1;
};

/// One workload's outcome. Operations are the workload's units of work
/// (toolchain passes, replays, scale runs, requests, set-ups); one that
/// fails any output check counts as failed.
struct Result {
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> layers;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Accounts one operation; `what` names the check that failed.
  void operation(bool ok, const std::string& what);
};

/// Names and units of every metric the benchmark reports, in the order of
/// BENCHMARK.json. Per-layer metrics a workload never reaches report 0:
/// the workload spends no time and does no work in that layer.
const std::vector<std::pair<std::string, std::string>>& end_to_end_catalogue();
const std::vector<std::pair<std::string, std::string>>& layer_catalogue();

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
double sum(const std::vector<double>& values);

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// FNV-1a over raw bytes, for repeat checks on outputs.
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash = kFnvOffset);
template <typename T>
std::uint64_t fnv1a_value(const T& value, std::uint64_t hash) {
  return fnv1a(&value, sizeof(value), hash);
}

/// The paper testbed: 16 workers in 4 racks, 1 GbE access, 10 GbE core
/// (the cluster of bench::default_config(), kept here so the benchmark's
/// inputs do not move when the figure benches change).
keddah::hadoop::ClusterConfig testbed();

Result run_pipeline(const Options& options);
Result run_replay(const Options& options);
Result run_fattree(const Options& options);
Result run_whatif(const Options& options);

/// The toolchain fidelity pair (volume error, size KS) at `seed`: the
/// pipeline-testbed passes of every replica, untimed.
std::pair<double, double> toolchain_fidelity(std::uint64_t seed);

}  // namespace perfbench

// Per-traffic-class component models: how many flows, how big, and when.
//
// A ClassModel is Keddah's statistical abstraction of one traffic class of
// one job type. It is trained from captured traces (model/builder.h) and
// sampled by the generator (gen/generator.h). Size models keep both the
// best parametric fit and the empirical CDF so generation can use either.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "stats/distributions.h"
#include "stats/ecdf.h"
#include "stats/regression.h"
#include "util/json.h"
#include "util/rng.h"

namespace keddah::model {

/// How flow sizes are drawn at generation time.
enum class SizeModelKind { kParametric, kEmpirical };

/// Flow-size model: best-fit parametric distribution + empirical fallback.
struct SizeModel {
  /// Winning family (by KS distance) and its goodness of fit.
  std::optional<stats::Distribution> parametric;
  double ks = 1.0;
  double ks_pvalue = 0.0;
  /// Empirical CDF of the training sizes (always present when trained).
  stats::Ecdf empirical;
  /// Which representation sample() uses.
  SizeModelKind kind = SizeModelKind::kParametric;

  /// Draws one flow size (bytes, clamped non-negative).
  double sample(util::Rng& rng) const;

  /// Mean flow size under the active representation.
  double mean() const;

  bool trained() const { return !empirical.empty(); }

  util::Json to_json() const;
  /// Reads a size model at key path `path`, recording every defect in
  /// `diagnostics`.
  static SizeModel from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                             const std::string& path = "");
  /// As above, throwing the first defect as a util::SpecError.
  static SizeModel from_json(const util::Json& doc, const std::string& file = "json") {
    return util::parse_or_throw(file, [&](util::Diagnostics& d) { return from_json(doc, d); });
  }
};

/// Flow-count model: a structural law calibrated by regression.
///
/// The regressor x depends on the class:
///   HDFS read  : number of map tasks          (locality-miss fraction)
///   Shuffle    : maps x reducers              (off-host fetch fraction)
///   HDFS write : output bytes estimate        (pipeline stages per block)
///   Control    : job wall-clock seconds       (heartbeat rates)
/// Counts are fit through the origin: zero work means zero flows.
struct CountModel {
  stats::LinearFit fit;
  /// Human-readable regressor description (for reports).
  std::string regressor = "x";

  /// Expected flow count at regressor value x (>= 0, rounded).
  std::size_t predict(double x) const;

  util::Json to_json() const;
  /// Reads {fit, regressor} at key path `path`; `fit` is required.
  static CountModel from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                              const std::string& path = "");
  /// As above, throwing the first defect as a util::SpecError.
  static CountModel from_json(const util::Json& doc, const std::string& file = "json") {
    return util::parse_or_throw(file, [&](util::Diagnostics& d) { return from_json(doc, d); });
  }
};

/// Flow arrival model. Each traffic class is active during a phase of the
/// job (reads during maps, shuffle between slow-start and last fetch, writes
/// at the tail). The model stores where that phase sits as a fraction of
/// job wall-clock, plus the empirical distribution of "fraction through the
/// phase at which a flow starts".
struct TemporalModel {
  /// Normalized flow-start offsets within the class phase, in [0, 1].
  stats::Ecdf normalized_offsets;
  /// Phase boundaries as fractions of job duration (means over training).
  double phase_start_frac = 0.0;
  double phase_end_frac = 1.0;

  /// Draws an absolute start time for a job lasting `job_duration_s`.
  double sample_start(util::Rng& rng, double job_duration_s) const;

  bool trained() const { return !normalized_offsets.empty(); }

  util::Json to_json() const;
  /// Reads a temporal model at key path `path`, recording every defect in
  /// `diagnostics`.
  static TemporalModel from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                 const std::string& path = "");
  /// As above, throwing the first defect as a util::SpecError.
  static TemporalModel from_json(const util::Json& doc, const std::string& file = "json") {
    return util::parse_or_throw(file, [&](util::Diagnostics& d) { return from_json(doc, d); });
  }
};

/// The full per-class model.
struct ClassModel {
  SizeModel size;
  CountModel count;
  TemporalModel temporal;
  /// Training metadata.
  std::size_t training_flows = 0;
  double training_bytes = 0.0;

  util::Json to_json() const;
  /// Reads a class model at key path `path`; `size`, `count` and `temporal`
  /// are required, as to_json() writes them.
  static ClassModel from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                              const std::string& path);
};

}  // namespace keddah::model

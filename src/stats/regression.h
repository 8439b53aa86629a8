// Least-squares regression used by Keddah's flow-count and traffic-volume
// scaling models (count/volume as a function of input size or of M x R).
#pragma once

#include <span>
#include <string>

#include "util/json_reader.h"

namespace keddah::stats {

/// y = intercept + slope * x with fit quality.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1] (0 when variance of y is zero).
  double r2 = 0.0;
  std::size_t n = 0;

  double predict(double x) const { return intercept + slope * x; }

  util::Json to_json() const;
  /// Reads {slope, intercept, r2, n} at key path `path`, recording every
  /// defect in `diagnostics`.
  static LinearFit from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                             const std::string& path = "");
  /// As above, throwing the first defect as a util::SpecError.
  static LinearFit from_json(const util::Json& doc, const std::string& file = "json") {
    return util::parse_or_throw(file, [&](util::Diagnostics& d) { return from_json(doc, d); });
  }
};

/// Ordinary least squares. Requires xs.size() == ys.size() >= 2 with
/// non-constant xs; throws std::invalid_argument otherwise.
LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys);

/// Least squares through the origin (y = slope * x), appropriate when the
/// quantity must vanish at zero input (e.g. shuffle bytes at zero input).
LinearFit fit_linear_through_origin(std::span<const double> xs, std::span<const double> ys);

/// Power-law fit y = a * x^b via least squares in log-log space. All inputs
/// must be positive. Returned LinearFit holds slope = b, intercept = ln a;
/// use predict_power().
LinearFit fit_power_law(std::span<const double> xs, std::span<const double> ys);

/// Evaluates a fit_power_law() result at x.
double predict_power(const LinearFit& fit, double x);

}  // namespace keddah::stats

#include "stats/regression.h"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace keddah::stats {

namespace {
void check_sizes(std::span<const double> xs, std::span<const double> ys, std::size_t min_n) {
  if (xs.size() != ys.size()) throw std::invalid_argument("regression: size mismatch");
  if (xs.size() < min_n) throw std::invalid_argument("regression: too few points");
}

double r_squared(std::span<const double> xs, std::span<const double> ys, const LinearFit& fit) {
  double mean_y = 0.0;
  for (const double y : ys) mean_y += y;
  mean_y /= static_cast<double>(ys.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double resid = ys[i] - fit.predict(xs[i]);
    ss_res += resid * resid;
    ss_tot += (ys[i] - mean_y) * (ys[i] - mean_y);
  }
  if (ss_tot <= 0.0) return ss_res <= 1e-12 ? 1.0 : 0.0;
  return std::max(0.0, 1.0 - ss_res / ss_tot);
}
}  // namespace

util::Json LinearFit::to_json() const {
  util::Json doc = util::Json::object();
  doc["slope"] = util::Json(slope);
  doc["intercept"] = util::Json(intercept);
  doc["r2"] = util::Json(r2);
  doc["n"] = util::Json(static_cast<std::uint64_t>(n));
  return doc;
}

LinearFit LinearFit::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                               const std::string& path) {
  LinearFit fit;
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("must be an object {slope, intercept, r2, n}")) return fit;
  r.require("slope");
  fit.slope = r.number("slope", 0.0);
  r.require("intercept");
  fit.intercept = r.number("intercept", 0.0);
  fit.r2 = r.number("r2", 0.0);
  if (fit.r2 > 1.0 + 1e-9) r.error("r2", "coefficient of determination cannot exceed 1");
  fit.n = r.count("n", 0, 0.0, "sample count must be >= 0");
  return fit;
}

LinearFit fit_linear(std::span<const double> xs, std::span<const double> ys) {
  check_sizes(xs, ys, 2);
  const auto n = static_cast<double>(xs.size());
  double sx = 0.0;
  double sy = 0.0;
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  if (std::fabs(denom) < 1e-12 * std::max(1.0, sxx)) {
    throw std::invalid_argument("regression: xs are (nearly) constant");
  }
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  fit.n = xs.size();
  fit.r2 = r_squared(xs, ys, fit);
  return fit;
}

LinearFit fit_linear_through_origin(std::span<const double> xs, std::span<const double> ys) {
  check_sizes(xs, ys, 1);
  double sxx = 0.0;
  double sxy = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  if (sxx <= 0.0) throw std::invalid_argument("regression: xs are all zero");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = 0.0;
  fit.n = xs.size();
  // Uncentered R^2 (1 - SS_res / sum y^2): the conventional quality metric
  // for through-origin regression, and meaningful even when every x is the
  // same (centered R^2 degenerates to 0 there).
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double resid = ys[i] - fit.predict(xs[i]);
    ss_res += resid * resid;
    ss_tot += ys[i] * ys[i];
  }
  fit.r2 = ss_tot > 0.0 ? std::max(0.0, 1.0 - ss_res / ss_tot) : (ss_res <= 0.0 ? 1.0 : 0.0);
  return fit;
}

LinearFit fit_power_law(std::span<const double> xs, std::span<const double> ys) {
  check_sizes(xs, ys, 2);
  std::vector<double> lx(xs.size());
  std::vector<double> ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] <= 0.0 || ys[i] <= 0.0) {
      throw std::invalid_argument("regression: power law needs positive data");
    }
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  return fit_linear(lx, ly);
}

double predict_power(const LinearFit& fit, double x) {
  if (x <= 0.0) throw std::invalid_argument("regression: power law needs positive x");
  return std::exp(fit.intercept + fit.slope * std::log(x));
}

}  // namespace keddah::stats

// Parametric distribution families used by Keddah flow-size models.
//
// A Distribution is a small value type (family tag + two parameters) with
// pdf/cdf/quantile/sampling and JSON round-tripping, so trained models can be
// persisted and replayed.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "util/json_reader.h"
#include "util/rng.h"

namespace keddah::stats {

/// Candidate families Keddah considers when fitting flow sizes.
enum class DistFamily {
  kExponential,  // p1 = rate lambda
  kNormal,       // p1 = mean, p2 = stddev
  kLognormal,    // p1 = mu, p2 = sigma (parameters of log X)
  kWeibull,      // p1 = shape k, p2 = scale lambda
  kGamma,        // p1 = shape k, p2 = scale theta
  kPareto,       // p1 = minimum xm, p2 = tail index alpha
  kUniform,      // p1 = lo, p2 = hi
  kConstant,     // p1 = value (degenerate; exact-size flows e.g. full blocks)
};

/// All fittable families, in fitting order.
std::span<const DistFamily> all_families();

/// "exponential", "lognormal", ... (stable identifiers used in JSON).
const char* family_name(DistFamily family);

/// Inverse of family_name; throws std::invalid_argument on unknown names.
DistFamily family_from_name(const std::string& name);

/// Why a parameter pair lies outside its family's domain.
struct ParamDomainError {
  const char* param;  ///< the offending parameter, "p1" or "p2"
  std::string message;
};

/// The family's parameter-domain rule, shared by the factories and the JSON
/// loader; nullopt when (p1, p2) is admissible.
std::optional<ParamDomainError> param_domain_error(DistFamily family, double p1, double p2);

/// A parameterized distribution.
class Distribution {
 public:
  /// Constructs a constant-zero distribution (useful default).
  Distribution() : family_(DistFamily::kConstant), p1_(0.0), p2_(0.0) {}

  static Distribution exponential(double lambda);
  static Distribution normal(double mean, double stddev);
  static Distribution lognormal(double mu, double sigma);
  static Distribution weibull(double shape, double scale);
  static Distribution gamma_dist(double shape, double scale);
  static Distribution pareto(double xm, double alpha);
  static Distribution uniform(double lo, double hi);
  static Distribution constant(double value);

  DistFamily family() const { return family_; }
  double param1() const { return p1_; }
  double param2() const { return p2_; }

  /// Probability density at x (mass 1 at the point for kConstant).
  double pdf(double x) const;

  /// Cumulative distribution function.
  double cdf(double x) const;

  /// Inverse CDF, q in [0, 1]; clamps at support boundaries.
  double quantile(double q) const;

  /// Theoretical mean (may be infinite for heavy-tailed Pareto).
  double mean() const;

  /// Draws one sample.
  double sample(util::Rng& rng) const;

  /// Sum of log pdf over the data; -inf when any point has zero density.
  double log_likelihood(std::span<const double> xs) const;

  /// Number of free parameters (for AIC).
  int num_params() const;

  /// Human-readable description, e.g. "lognormal(mu=13.2, sigma=0.8)".
  std::string describe() const;

  util::Json to_json() const;
  /// Reads {family, p1, p2} at key path `path`, recording every defect in
  /// `diagnostics`; yields the default distribution when there is one.
  static Distribution from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                const std::string& path = "");
  /// As above, throwing the first defect as a util::SpecError.
  static Distribution from_json(const util::Json& doc, const std::string& file = "json") {
    return util::parse_or_throw(file, [&](util::Diagnostics& d) { return from_json(doc, d); });
  }

 private:
  Distribution(DistFamily family, double p1, double p2) : family_(family), p1_(p1), p2_(p2) {}
  /// Throws std::invalid_argument when (p1, p2) is outside the family's domain.
  static Distribution checked(DistFamily family, double p1, double p2);

  DistFamily family_;
  double p1_;
  double p2_;
};

}  // namespace keddah::stats

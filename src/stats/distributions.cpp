#include "stats/distributions.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "stats/special.h"
#include "util/strings.h"

namespace keddah::stats {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

std::span<const DistFamily> all_families() {
  static constexpr std::array<DistFamily, 8> kAll = {
      DistFamily::kExponential, DistFamily::kNormal, DistFamily::kLognormal,
      DistFamily::kWeibull,     DistFamily::kGamma,  DistFamily::kPareto,
      DistFamily::kUniform,     DistFamily::kConstant};
  return kAll;
}

const char* family_name(DistFamily family) {
  switch (family) {
    case DistFamily::kExponential:
      return "exponential";
    case DistFamily::kNormal:
      return "normal";
    case DistFamily::kLognormal:
      return "lognormal";
    case DistFamily::kWeibull:
      return "weibull";
    case DistFamily::kGamma:
      return "gamma";
    case DistFamily::kPareto:
      return "pareto";
    case DistFamily::kUniform:
      return "uniform";
    case DistFamily::kConstant:
      return "constant";
  }
  return "unknown";
}

DistFamily family_from_name(const std::string& name) {
  for (const DistFamily f : all_families()) {
    if (name == family_name(f)) return f;
  }
  throw std::invalid_argument("distribution: unknown family '" + name + "'");
}

std::optional<ParamDomainError> param_domain_error(DistFamily family, double p1, double p2) {
  const auto fail = [family](const char* param, const char* what) {
    return ParamDomainError{param, std::string(family_name(family)) + what};
  };
  switch (family) {
    case DistFamily::kExponential:
      if (!(p1 > 0.0)) return fail("p1", " rate must be > 0");
      break;
    case DistFamily::kNormal:
    case DistFamily::kLognormal:
      if (!(p2 >= 0.0)) return fail("p2", " spread must be >= 0");
      break;
    case DistFamily::kWeibull:
    case DistFamily::kGamma:
    case DistFamily::kPareto:
      if (!(p1 > 0.0 && p2 > 0.0)) {
        return fail(p1 > 0.0 ? "p2" : "p1", " parameters must both be > 0");
      }
      break;
    case DistFamily::kUniform:
      if (!(p2 >= p1)) return fail("p2", " upper bound is below the lower bound");
      break;
    case DistFamily::kConstant:
      break;
  }
  return std::nullopt;
}

Distribution Distribution::checked(DistFamily family, double p1, double p2) {
  if (const auto error = param_domain_error(family, p1, p2)) {
    throw std::invalid_argument("distribution: " + error->message);
  }
  return {family, p1, p2};
}

Distribution Distribution::exponential(double lambda) {
  return checked(DistFamily::kExponential, lambda, 0.0);
}

Distribution Distribution::normal(double mean, double stddev) {
  return checked(DistFamily::kNormal, mean, stddev);
}

Distribution Distribution::lognormal(double mu, double sigma) {
  return checked(DistFamily::kLognormal, mu, sigma);
}

Distribution Distribution::weibull(double shape, double scale) {
  return checked(DistFamily::kWeibull, shape, scale);
}

Distribution Distribution::gamma_dist(double shape, double scale) {
  return checked(DistFamily::kGamma, shape, scale);
}

Distribution Distribution::pareto(double xm, double alpha) {
  return checked(DistFamily::kPareto, xm, alpha);
}

Distribution Distribution::uniform(double lo, double hi) {
  return checked(DistFamily::kUniform, lo, hi);
}

Distribution Distribution::constant(double value) { return {DistFamily::kConstant, value, 0.0}; }

double Distribution::pdf(double x) const {
  switch (family_) {
    case DistFamily::kExponential:
      return x < 0.0 ? 0.0 : p1_ * std::exp(-p1_ * x);
    case DistFamily::kNormal: {
      if (p2_ <= 0.0) return x == p1_ ? kInf : 0.0;
      const double z = (x - p1_) / p2_;
      return std::exp(-0.5 * z * z) / (p2_ * std::sqrt(2.0 * M_PI));
    }
    case DistFamily::kLognormal: {
      if (x <= 0.0) return 0.0;
      if (p2_ <= 0.0) return std::log(x) == p1_ ? kInf : 0.0;
      const double z = (std::log(x) - p1_) / p2_;
      return std::exp(-0.5 * z * z) / (x * p2_ * std::sqrt(2.0 * M_PI));
    }
    case DistFamily::kWeibull: {
      if (x < 0.0) return 0.0;
      const double k = p1_;
      const double lam = p2_;
      if (x == 0.0) return k < 1.0 ? kInf : (k == 1.0 ? 1.0 / lam : 0.0);
      const double r = x / lam;
      return (k / lam) * std::pow(r, k - 1.0) * std::exp(-std::pow(r, k));
    }
    case DistFamily::kGamma: {
      if (x < 0.0) return 0.0;
      const double k = p1_;
      const double theta = p2_;
      if (x == 0.0) return k < 1.0 ? kInf : (k == 1.0 ? 1.0 / theta : 0.0);
      return std::exp((k - 1.0) * std::log(x) - x / theta - std::lgamma(k) - k * std::log(theta));
    }
    case DistFamily::kPareto:
      if (x < p1_) return 0.0;
      return p2_ * std::pow(p1_, p2_) / std::pow(x, p2_ + 1.0);
    case DistFamily::kUniform:
      if (x < p1_ || x > p2_) return 0.0;
      return p2_ > p1_ ? 1.0 / (p2_ - p1_) : kInf;
    case DistFamily::kConstant:
      return x == p1_ ? kInf : 0.0;
  }
  return 0.0;
}

double Distribution::cdf(double x) const {
  switch (family_) {
    case DistFamily::kExponential:
      return x < 0.0 ? 0.0 : 1.0 - std::exp(-p1_ * x);
    case DistFamily::kNormal:
      if (p2_ <= 0.0) return x >= p1_ ? 1.0 : 0.0;
      return normal_cdf((x - p1_) / p2_);
    case DistFamily::kLognormal:
      if (x <= 0.0) return 0.0;
      if (p2_ <= 0.0) return std::log(x) >= p1_ ? 1.0 : 0.0;
      return normal_cdf((std::log(x) - p1_) / p2_);
    case DistFamily::kWeibull:
      return x < 0.0 ? 0.0 : 1.0 - std::exp(-std::pow(x / p2_, p1_));
    case DistFamily::kGamma:
      return x <= 0.0 ? 0.0 : reg_lower_incomplete_gamma(p1_, x / p2_);
    case DistFamily::kPareto:
      return x < p1_ ? 0.0 : 1.0 - std::pow(p1_ / x, p2_);
    case DistFamily::kUniform:
      if (x < p1_) return 0.0;
      if (x >= p2_) return 1.0;
      return (x - p1_) / (p2_ - p1_);
    case DistFamily::kConstant:
      return x >= p1_ ? 1.0 : 0.0;
  }
  return 0.0;
}

double Distribution::quantile(double q) const {
  q = std::clamp(q, 0.0, 1.0);
  switch (family_) {
    case DistFamily::kExponential:
      return q >= 1.0 ? kInf : -std::log(1.0 - q) / p1_;
    case DistFamily::kNormal:
      if (p2_ <= 0.0) return p1_;
      if (q <= 0.0) return -kInf;
      if (q >= 1.0) return kInf;
      return p1_ + p2_ * normal_quantile(q);
    case DistFamily::kLognormal:
      if (p2_ <= 0.0) return std::exp(p1_);
      if (q <= 0.0) return 0.0;
      if (q >= 1.0) return kInf;
      return std::exp(p1_ + p2_ * normal_quantile(q));
    case DistFamily::kWeibull:
      return q >= 1.0 ? kInf : p2_ * std::pow(-std::log(1.0 - q), 1.0 / p1_);
    case DistFamily::kGamma: {
      if (q <= 0.0) return 0.0;
      if (q >= 1.0) return kInf;
      // Bisection on the CDF; monotone, so robust if slow. Bounds grow until
      // they bracket the target.
      double lo = 0.0;
      double hi = p1_ * p2_ + 1.0;
      while (cdf(hi) < q) hi *= 2.0;
      for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        (cdf(mid) < q ? lo : hi) = mid;
      }
      return 0.5 * (lo + hi);
    }
    case DistFamily::kPareto:
      return q >= 1.0 ? kInf : p1_ / std::pow(1.0 - q, 1.0 / p2_);
    case DistFamily::kUniform:
      return p1_ + q * (p2_ - p1_);
    case DistFamily::kConstant:
      return p1_;
  }
  return 0.0;
}

double Distribution::mean() const {
  switch (family_) {
    case DistFamily::kExponential:
      return 1.0 / p1_;
    case DistFamily::kNormal:
      return p1_;
    case DistFamily::kLognormal:
      return std::exp(p1_ + 0.5 * p2_ * p2_);
    case DistFamily::kWeibull:
      return p2_ * std::tgamma(1.0 + 1.0 / p1_);
    case DistFamily::kGamma:
      return p1_ * p2_;
    case DistFamily::kPareto:
      return p2_ > 1.0 ? p2_ * p1_ / (p2_ - 1.0) : kInf;
    case DistFamily::kUniform:
      return 0.5 * (p1_ + p2_);
    case DistFamily::kConstant:
      return p1_;
  }
  return 0.0;
}

double Distribution::sample(util::Rng& rng) const {
  switch (family_) {
    case DistFamily::kExponential:
      return rng.exponential(p1_);
    case DistFamily::kNormal:
      return rng.normal(p1_, p2_);
    case DistFamily::kLognormal:
      return rng.lognormal(p1_, p2_);
    case DistFamily::kWeibull:
      return rng.weibull(p1_, p2_);
    case DistFamily::kGamma:
      return rng.gamma(p1_, p2_);
    case DistFamily::kPareto:
      return rng.pareto(p1_, p2_);
    case DistFamily::kUniform:
      return rng.uniform(p1_, p2_);
    case DistFamily::kConstant:
      return p1_;
  }
  return 0.0;
}

double Distribution::log_likelihood(std::span<const double> xs) const {
  double total = 0.0;
  for (const double x : xs) {
    const double d = pdf(x);
    if (d <= 0.0 || !std::isfinite(d)) return -kInf;
    total += std::log(d);
  }
  return total;
}

int Distribution::num_params() const {
  switch (family_) {
    case DistFamily::kExponential:
    case DistFamily::kConstant:
      return 1;
    default:
      return 2;
  }
}

std::string Distribution::describe() const {
  switch (family_) {
    case DistFamily::kExponential:
      return util::format("exponential(lambda=%.4g)", p1_);
    case DistFamily::kNormal:
      return util::format("normal(mean=%.4g, sd=%.4g)", p1_, p2_);
    case DistFamily::kLognormal:
      return util::format("lognormal(mu=%.4g, sigma=%.4g)", p1_, p2_);
    case DistFamily::kWeibull:
      return util::format("weibull(k=%.4g, lambda=%.4g)", p1_, p2_);
    case DistFamily::kGamma:
      return util::format("gamma(k=%.4g, theta=%.4g)", p1_, p2_);
    case DistFamily::kPareto:
      return util::format("pareto(xm=%.4g, alpha=%.4g)", p1_, p2_);
    case DistFamily::kUniform:
      return util::format("uniform(%.4g, %.4g)", p1_, p2_);
    case DistFamily::kConstant:
      return util::format("constant(%.4g)", p1_);
  }
  return "?";
}

util::Json Distribution::to_json() const {
  util::Json doc = util::Json::object();
  doc["family"] = util::Json(family_name(family_));
  doc["p1"] = util::Json(p1_);
  doc["p2"] = util::Json(p2_);
  return doc;
}

Distribution Distribution::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                     const std::string& path) {
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("must be an object {family, p1, p2}")) return {};
  std::vector<std::string> names;
  for (const DistFamily f : all_families()) names.emplace_back(family_name(f));
  const std::size_t errors = diagnostics.num_errors();
  r.require("family");
  const auto family = static_cast<DistFamily>(
      r.name("family", names, static_cast<std::size_t>(DistFamily::kConstant),
             "distribution family"));
  auto param = [&](const char* field) {
    r.require(field);
    return r.number(field, 0.0);
  };
  const double p1 = param("p1");
  const double p2 = param("p2");
  if (diagnostics.num_errors() != errors) return {};
  if (const auto error = param_domain_error(family, p1, p2)) {
    r.error(error->param, error->message);
    return {};
  }
  return {family, p1, p2};
}

}  // namespace keddah::stats

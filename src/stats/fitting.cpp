#include "stats/fitting.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/kstest.h"
#include "stats/special.h"
#include "stats/summary.h"

namespace keddah::stats {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool all_positive(std::span<const double> xs) {
  return std::all_of(xs.begin(), xs.end(), [](double x) { return x > 0.0; });
}

bool all_equal(std::span<const double> xs) {
  return std::all_of(xs.begin(), xs.end(), [&](double x) { return x == xs.front(); });
}

std::optional<Distribution> mle(DistFamily family, std::span<const double> xs) {
  const std::size_t n = xs.size();
  switch (family) {
    case DistFamily::kExponential: {
      const double m = mean(xs);
      if (m <= 0.0) return std::nullopt;
      return Distribution::exponential(1.0 / m);
    }
    case DistFamily::kNormal: {
      const double m = mean(xs);
      // MLE variance uses the n denominator.
      double acc = 0.0;
      for (const double x : xs) acc += (x - m) * (x - m);
      const double sd = std::sqrt(acc / static_cast<double>(n));
      if (sd <= 0.0) return std::nullopt;
      return Distribution::normal(m, sd);
    }
    case DistFamily::kLognormal: {
      if (!all_positive(xs)) return std::nullopt;
      double mu = 0.0;
      for (const double x : xs) mu += std::log(x);
      mu /= static_cast<double>(n);
      double acc = 0.0;
      for (const double x : xs) {
        const double d = std::log(x) - mu;
        acc += d * d;
      }
      const double sigma = std::sqrt(acc / static_cast<double>(n));
      if (sigma <= 0.0) return std::nullopt;
      return Distribution::lognormal(mu, sigma);
    }
    case DistFamily::kWeibull: {
      if (!all_positive(xs) || all_equal(xs)) return std::nullopt;
      // Solve g(k) = sum x^k ln x / sum x^k - 1/k - mean(ln x) = 0.
      std::vector<double> ln_xs(n);
      double mean_ln = 0.0;
      for (std::size_t i = 0; i < n; ++i) mean_ln += ln_xs[i] = std::log(xs[i]);
      mean_ln /= static_cast<double>(n);
      auto g = [&](double k) {
        double num = 0.0;
        double den = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double xk = std::pow(xs[i], k);
          num += xk * ln_xs[i];
          den += xk;
        }
        return num / den - 1.0 / k - mean_ln;
      };
      // Bracket then bisect: g is increasing in k.
      double lo = 1e-3;
      double hi = 1.0;
      double g_hi = g(hi);
      while (g_hi < 0.0 && hi < 1e3) {
        hi *= 2.0;
        g_hi = g(hi);
      }
      if (g_hi < 0.0) return std::nullopt;
      for (int i = 0; i < 100; ++i) {
        const double mid = 0.5 * (lo + hi);
        // lo and hi are adjacent doubles: every later round would land on
        // one of them again, and the k below is that same double.
        if (mid == lo || mid == hi) break;
        (g(mid) < 0.0 ? lo : hi) = mid;
      }
      const double k = 0.5 * (lo + hi);
      double sum_xk = 0.0;
      for (const double x : xs) sum_xk += std::pow(x, k);
      const double lambda = std::pow(sum_xk / static_cast<double>(n), 1.0 / k);
      if (!(k > 0.0) || !(lambda > 0.0)) return std::nullopt;
      return Distribution::weibull(k, lambda);
    }
    case DistFamily::kGamma: {
      if (!all_positive(xs) || all_equal(xs)) return std::nullopt;
      const double m = mean(xs);
      double mean_ln = 0.0;
      for (const double x : xs) mean_ln += std::log(x);
      mean_ln /= static_cast<double>(n);
      const double s = std::log(m) - mean_ln;
      if (s <= 0.0) return std::nullopt;
      // Minka's closed-form initializer then Newton on ln k - psi(k) = s.
      double k = (3.0 - s + std::sqrt((s - 3.0) * (s - 3.0) + 24.0 * s)) / (12.0 * s);
      for (int i = 0; i < 50; ++i) {
        const double f = std::log(k) - digamma(k) - s;
        const double fp = 1.0 / k - trigamma(k);
        const double step = f / fp;
        k -= step;
        if (k <= 0.0) k = 1e-6;
        if (std::fabs(step) < 1e-12 * k) break;
      }
      if (!(k > 0.0) || !std::isfinite(k)) return std::nullopt;
      return Distribution::gamma_dist(k, m / k);
    }
    case DistFamily::kPareto: {
      if (!all_positive(xs) || all_equal(xs)) return std::nullopt;
      const double xm = *std::min_element(xs.begin(), xs.end());
      double acc = 0.0;
      for (const double x : xs) acc += std::log(x / xm);
      if (acc <= 0.0) return std::nullopt;
      const double alpha = static_cast<double>(n) / acc;
      return Distribution::pareto(xm, alpha);
    }
    case DistFamily::kUniform: {
      const auto [lo, hi] = std::minmax_element(xs.begin(), xs.end());
      if (*hi <= *lo) return std::nullopt;
      return Distribution::uniform(*lo, *hi);
    }
    case DistFamily::kConstant: {
      if (!all_equal(xs)) return std::nullopt;
      return Distribution::constant(xs.front());
    }
  }
  return std::nullopt;
}

double criterion_value(const FitResult& r, SelectBy criterion) {
  switch (criterion) {
    case SelectBy::kKs:
      return r.ks;
    case SelectBy::kAic:
      return r.aic;
    case SelectBy::kLogLikelihood:
      return -r.log_likelihood;
  }
  return r.ks;
}

}  // namespace

std::optional<FitResult> fit_family(DistFamily family, std::span<const double> xs) {
  if (xs.empty()) return std::nullopt;
  const auto dist = mle(family, xs);
  if (!dist) return std::nullopt;
  FitResult result;
  result.dist = *dist;
  result.log_likelihood = dist->log_likelihood(xs);
  if (family == DistFamily::kConstant) {
    // Degenerate family: likelihood is a point mass; KS distance is zero by
    // construction when all samples equal the constant.
    result.ks = 0.0;
    result.ks_pvalue = 1.0;
    result.log_likelihood = 0.0;
    result.aic = 2.0;
    return result;
  }
  result.ks = ks_statistic(xs, *dist);
  result.ks_pvalue = ks_pvalue(result.ks, xs.size());
  result.aic = 2.0 * dist->num_params() - 2.0 * result.log_likelihood;
  if (!std::isfinite(result.log_likelihood)) result.aic = kInf;
  return result;
}

std::vector<FitResult> fit_all(std::span<const double> xs, SelectBy criterion) {
  std::vector<FitResult> results;
  for (const DistFamily family : all_families()) {
    if (auto r = fit_family(family, xs)) results.push_back(*r);
  }
  std::sort(results.begin(), results.end(), [criterion](const FitResult& a, const FitResult& b) {
    return criterion_value(a, criterion) < criterion_value(b, criterion);
  });
  return results;
}

std::optional<FitResult> fit_best(std::span<const double> xs, SelectBy criterion) {
  auto results = fit_all(xs, criterion);
  if (results.empty()) return std::nullopt;
  return results.front();
}

}  // namespace keddah::stats

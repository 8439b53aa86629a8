#include "model/flow_models.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/json_reader.h"
#include "util/strings.h"

namespace keddah::model {

namespace {

/// Serializes an ECDF as at most `cap` evenly spaced quantiles — enough to
/// reproduce the curve while keeping model files small.
util::Json ecdf_to_json(const stats::Ecdf& ecdf, std::size_t cap = 512) {
  util::Json arr = util::Json::array();
  const auto& values = ecdf.values();
  if (values.size() <= cap) {
    for (const double v : values) arr.push_back(util::Json(v));
  } else {
    for (std::size_t i = 0; i < cap; ++i) {
      const double q = static_cast<double>(i) / static_cast<double>(cap - 1);
      arr.push_back(util::Json(ecdf.quantile(q)));
    }
  }
  return arr;
}

/// Reads the ECDF in `field`, serialized as its sorted sample values: every
/// entry finite and the sequence non-decreasing (quantile lookups
/// binary-search it, so unsorted input is a defect, not something to sort).
stats::Ecdf ecdf_from_json(util::JsonReader& r, const std::string& field) {
  const util::Json* arr = r.find(field);
  if (arr == nullptr) return {};
  if (!arr->is_array()) {
    r.error(field, "must be an array of sorted sample values");
    return {};
  }
  std::vector<double> values;
  for (const auto& v : arr->as_array()) {
    const std::string key = util::format("%s[%zu]", r.key(field).c_str(), values.size());
    if (!v.is_number() || !std::isfinite(v.as_number())) {
      r.diagnostics().error(key,
                            "ECDF sample must be a finite number (NaN/inf serializes as null)");
      return {};
    }
    if (!values.empty() && v.as_number() < values.back()) {
      r.diagnostics().error(
          key, util::format("ECDF is not non-decreasing: %g after %g", v.as_number(),
                            values.back()),
          "re-sort the samples; quantile lookups binary-search this array");
      return {};
    }
    values.push_back(v.as_number());
  }
  return stats::Ecdf(values);
}

}  // namespace

double SizeModel::sample(util::Rng& rng) const {
  double value = 0.0;
  if (kind == SizeModelKind::kParametric && parametric.has_value()) {
    value = parametric->sample(rng);
  } else if (!empirical.empty()) {
    value = empirical.sample(rng);
  }
  return std::max(0.0, value);
}

double SizeModel::mean() const {
  if (kind == SizeModelKind::kParametric && parametric.has_value()) {
    const double m = parametric->mean();
    if (std::isfinite(m)) return std::max(0.0, m);
  }
  if (empirical.empty()) return 0.0;
  double total = 0.0;
  for (const double v : empirical.values()) total += v;
  return total / static_cast<double>(empirical.size());
}

util::Json SizeModel::to_json() const {
  util::Json doc = util::Json::object();
  if (parametric.has_value()) doc["parametric"] = parametric->to_json();
  doc["ks"] = util::Json(ks);
  doc["ks_pvalue"] = util::Json(ks_pvalue);
  doc["kind"] = util::Json(kind == SizeModelKind::kParametric ? "parametric" : "empirical");
  doc["empirical"] = ecdf_to_json(empirical);
  return doc;
}

SizeModel SizeModel::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                               const std::string& path) {
  SizeModel m;
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("must be an object")) return m;
  if (const util::Json* parametric = r.find("parametric")) {
    m.parametric = stats::Distribution::from_json(*parametric, diagnostics, r.key("parametric"));
  }
  m.ks = r.number("ks", 1.0);
  if (m.ks < 0.0 || m.ks > 1.0) r.error("ks", "a KS distance lies in [0, 1]");
  m.ks_pvalue = r.number("ks_pvalue", 0.0);
  if (m.ks_pvalue < 0.0 || m.ks_pvalue > 1.0) r.error("ks_pvalue", "a p-value lies in [0, 1]");
  m.kind = static_cast<SizeModelKind>(
      r.name("kind", {"parametric", "empirical"}, 0, "size-model kind"));
  const util::Json* samples = r.find("empirical");
  m.empirical = ecdf_from_json(r, "empirical");
  // A parametric kind without a distribution samples the ECDF instead (an
  // untrained class writes neither); an empirical kind needs samples.
  if (m.kind == SizeModelKind::kEmpirical && (samples == nullptr || samples->size() == 0)) {
    r.error("empirical", "kind is \"empirical\" but the sample array is empty");
  }
  return m;
}

std::size_t CountModel::predict(double x, std::string_view traffic_class) const {
  const double y = fit.predict(x);
  if (y <= 0.0) return 0;
  // Checked before the cast: llround of a huge value is undefined, and a
  // size_t cast of it reads as billions of billions of flows.
  if (!(y <= kMaxFlows)) {
    throw std::overflow_error(util::format(
        "count model: %.*s at %s = %g predicts %g flows, outside 0..%g",
        static_cast<int>(traffic_class.size()), traffic_class.data(), regressor.c_str(), x, y,
        kMaxFlows));
  }
  return static_cast<std::size_t>(std::llround(y));
}

util::Json CountModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["fit"] = fit.to_json();
  doc["regressor"] = util::Json(regressor);
  return doc;
}

CountModel CountModel::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                 const std::string& path) {
  CountModel m;
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("must be an object {fit, regressor}")) return m;
  if (const util::Json* fit = r.require("fit")) {
    m.fit = stats::LinearFit::from_json(*fit, diagnostics, r.key("fit"));
  }
  m.regressor = r.string("regressor", "x");
  return m;
}

double TemporalModel::sample_start(util::Rng& rng, double job_duration_s) const {
  const double start = phase_start_frac * job_duration_s;
  const double span = std::max(0.0, (phase_end_frac - phase_start_frac) * job_duration_s);
  const double offset = normalized_offsets.empty() ? rng.uniform() : normalized_offsets.sample(rng);
  return start + std::clamp(offset, 0.0, 1.0) * span;
}

util::Json TemporalModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["offsets"] = ecdf_to_json(normalized_offsets, 256);
  doc["phase_start_frac"] = util::Json(phase_start_frac);
  doc["phase_end_frac"] = util::Json(phase_end_frac);
  return doc;
}

TemporalModel TemporalModel::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                       const std::string& path) {
  TemporalModel m;
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("must be an object")) return m;
  m.normalized_offsets = ecdf_from_json(r, "offsets");
  auto fraction = [&](const char* field, double fallback) {
    const double value = r.number(field, fallback);
    if (value < 0.0 || value > 1.0) r.error(field, "phase fraction must be in [0, 1]");
    return value;
  };
  m.phase_start_frac = fraction("phase_start_frac", 0.0);
  m.phase_end_frac = fraction("phase_end_frac", 1.0);
  if (m.phase_start_frac > m.phase_end_frac) {
    r.error("phase_start_frac", "phase starts after it ends",
            "swap phase_start_frac and phase_end_frac");
  }
  return m;
}

util::Json ClassModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["size"] = size.to_json();
  doc["count"] = count.to_json();
  doc["temporal"] = temporal.to_json();
  doc["training_flows"] = util::Json(static_cast<std::uint64_t>(training_flows));
  doc["training_bytes"] = util::Json(training_bytes);
  return doc;
}

ClassModel ClassModel::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                 const std::string& path) {
  ClassModel m;
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("must be an object {size, count, temporal, ...}")) return m;
  if (const util::Json* size = r.require("size")) {
    m.size = SizeModel::from_json(*size, diagnostics, r.key("size"));
  }
  if (const util::Json* count = r.require("count")) {
    m.count = CountModel::from_json(*count, diagnostics, r.key("count"));
  }
  if (const util::Json* temporal = r.require("temporal")) {
    m.temporal = TemporalModel::from_json(*temporal, diagnostics, r.key("temporal"));
  }
  m.training_flows = r.count("training_flows", 0, 0.0, "must be >= 0");
  m.training_bytes = r.number("training_bytes", 0.0);
  if (m.training_bytes < 0.0) r.error("training_bytes", "must be >= 0");
  return m;
}

}  // namespace keddah::model

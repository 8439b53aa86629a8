#include "lint/lint.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <ostream>
#include <set>

#include "hadoop/faults.h"
#include "keddah/scenario.h"
#include "net/flow.h"
#include "util/json_reader.h"
#include "util/strings.h"

namespace keddah::lint {

namespace {

void add(std::vector<Diagnostic>& out, const std::string& file, std::string key,
         std::string message, std::string hint = "") {
  out.push_back(Diagnostic{Severity::kError, file, std::move(key), std::move(message),
                           std::move(hint)});
}

void append(std::vector<Diagnostic>& out, util::Diagnostics& diagnostics) {
  for (auto& d : diagnostics.take()) out.push_back(std::move(d));
}

// ---------------------------------------------------------------------------
// Model linting.

/// Family-specific parameter domains, from stats::Distribution's factories.
void lint_distribution(const util::Json& doc, const std::string& prefix,
                       util::Diagnostics& diagnostics) {
  util::JsonReader r(doc, prefix, diagnostics);
  if (!r.is_object()) {
    diagnostics.error(prefix, "must be an object {family, p1, p2}");
    return;
  }
  const util::Json* family_value = r.find("family");
  const std::optional<double> p1 = r.finite("p1");
  const bool has_p2 = r.find("p2") != nullptr;
  const std::optional<double> p2_value = r.finite("p2");
  const std::string family =
      family_value != nullptr && family_value->is_string() ? family_value->as_string() : "";
  static const std::set<std::string> kFamilies = {"exponential", "normal", "lognormal",
                                                  "weibull",     "gamma",  "pareto",
                                                  "uniform",     "constant"};
  if (kFamilies.count(family) == 0) {
    r.error("family", "unknown distribution family '" + family + "'",
            "one of: " + util::join({kFamilies.begin(), kFamilies.end()}, ", "));
    return;
  }
  if (!p1) {
    r.error("p1", "parameter must be a finite number (NaN/inf serializes as null)",
            "refit the distribution or drop the parametric block");
    return;
  }
  if (has_p2 && !p2_value) {
    r.error("p2", "parameter must be a finite number (NaN/inf serializes as null)");
    return;
  }
  const double p2 = p2_value.value_or(0.0);
  if (family == "exponential" && *p1 <= 0.0) {
    r.error("p1", "exponential rate must be > 0");
  } else if ((family == "normal" || family == "lognormal") && p2 < 0.0) {
    r.error("p2", family + " spread must be >= 0");
  } else if ((family == "weibull" || family == "gamma" || family == "pareto") &&
             (*p1 <= 0.0 || p2 <= 0.0)) {
    r.error(*p1 <= 0.0 ? "p1" : "p2", family + " parameters must both be > 0");
  } else if (family == "uniform" && p2 < *p1) {
    r.error("p2", "uniform upper bound is below the lower bound", "swap p1 and p2");
  }
}

void lint_linear_fit(const util::Json& doc, const std::string& prefix,
                     util::Diagnostics& diagnostics) {
  util::JsonReader r(doc, prefix, diagnostics);
  r.accept_unknown_keys();
  if (!r.is_object()) {
    diagnostics.error(prefix, "must be an object {slope, intercept, r2, n}");
    return;
  }
  for (const char* key : {"slope", "intercept"}) {
    if (!r.finite(key)) {
      r.error(key, "must be a finite number (NaN/inf serializes as null)", "refit the regression");
    }
  }
  const std::optional<double> r2 = r.finite("r2");
  if (r2 && *r2 > 1.0 + 1e-9) {
    r.error("r2", "coefficient of determination cannot exceed 1");
  }
  if (r.number("n", 0.0) < 0.0) r.error("n", "sample count must be >= 0");
}

/// An ECDF serialized as its sorted sample values: every entry finite and
/// the sequence non-decreasing.
void lint_ecdf(const util::Json& arr, const std::string& prefix, util::Diagnostics& diagnostics) {
  if (!arr.is_array()) {
    diagnostics.error(prefix, "must be an array of sorted sample values");
    return;
  }
  const auto& values = arr.as_array();
  double prev = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!values[i].is_number() || !std::isfinite(values[i].as_number())) {
      diagnostics.error(util::format("%s[%zu]", prefix.c_str(), i),
                        "ECDF sample must be a finite number (NaN/inf serializes as null)");
      return;
    }
    const double v = values[i].as_number();
    if (v < prev) {
      diagnostics.error(util::format("%s[%zu]", prefix.c_str(), i),
                        util::format("ECDF is not non-decreasing: %g after %g", v, prev),
                        "re-sort the samples; quantile lookups binary-search this array");
      return;
    }
    prev = v;
  }
}

void lint_size_model(const util::Json& doc, const std::string& prefix,
                     util::Diagnostics& diagnostics) {
  util::JsonReader r(doc, prefix, diagnostics);
  r.accept_unknown_keys();
  if (!r.is_object()) {
    diagnostics.error(prefix, "must be an object");
    return;
  }
  const util::Json* parametric = r.find("parametric");
  if (parametric != nullptr) lint_distribution(*parametric, r.key("parametric"), diagnostics);
  const double ks = r.number("ks", 0.0);
  if (ks < 0.0 || ks > 1.0) r.error("ks", "a KS distance lies in [0, 1]");
  const double pvalue = r.number("ks_pvalue", 0.0);
  if (pvalue < 0.0 || pvalue > 1.0) r.error("ks_pvalue", "a p-value lies in [0, 1]");
  const std::string kind = doc.get_string("kind", "parametric");
  if (kind != "parametric" && kind != "empirical") {
    r.error("kind", "unknown size-model kind '" + kind + "'", "one of: parametric, empirical");
  }
  if (kind == "parametric" && parametric == nullptr) {
    r.error("parametric", "kind is \"parametric\" but no distribution is given",
            "add a {family, p1, p2} block or switch kind to \"empirical\"");
  }
  const util::Json* empirical = r.find("empirical");
  if (empirical != nullptr) lint_ecdf(*empirical, r.key("empirical"), diagnostics);
  if (kind == "empirical" && (empirical == nullptr || empirical->size() == 0)) {
    r.error("empirical", "kind is \"empirical\" but the sample array is empty");
  }
}

void lint_temporal_model(const util::Json& doc, const std::string& prefix,
                         util::Diagnostics& diagnostics) {
  util::JsonReader r(doc, prefix, diagnostics);
  r.accept_unknown_keys();
  if (!r.is_object()) {
    diagnostics.error(prefix, "must be an object");
    return;
  }
  if (const util::Json* offsets = r.find("offsets")) {
    lint_ecdf(*offsets, r.key("offsets"), diagnostics);
  }
  const double start = r.number("phase_start_frac", 0.0);
  const double end = r.number("phase_end_frac", 1.0);
  if (start < 0.0 || start > 1.0) {
    r.error("phase_start_frac", "phase fraction must be in [0, 1]");
  }
  if (end < 0.0 || end > 1.0) r.error("phase_end_frac", "phase fraction must be in [0, 1]");
  if (start > end) {
    r.error("phase_start_frac", "phase starts after it ends",
            "swap phase_start_frac and phase_end_frac");
  }
}

void lint_class_model(const util::Json& doc, const std::string& prefix,
                      util::Diagnostics& diagnostics) {
  util::JsonReader r(doc, prefix, diagnostics);
  if (!r.is_object()) {
    diagnostics.error(prefix, "must be an object {size, count, temporal, ...}");
    return;
  }
  (void)r.find("training_flows");  // a plain count; the loader takes any value
  if (const util::Json* size = r.find("size")) lint_size_model(*size, r.key("size"), diagnostics);
  if (const util::Json* count = r.find("count")) {
    if (!count->is_object()) {
      r.error("count", "must be an object");
    } else if (count->contains("fit")) {
      lint_linear_fit(count->at("fit"), r.key("count") + ".fit", diagnostics);
    }
  }
  if (const util::Json* temporal = r.find("temporal")) {
    lint_temporal_model(*temporal, r.key("temporal"), diagnostics);
  }
  if (r.number("training_bytes", 0.0) < 0.0) r.error("training_bytes", "must be >= 0");
}

void lint_context(const util::Json& doc, util::Diagnostics& diagnostics) {
  util::JsonReader r(doc, "context", diagnostics);
  if (!r.is_object()) {
    diagnostics.error("context", "must be an object");
    return;
  }
  (void)r.find("num_runs");  // informational; the loader takes any value
  if (r.number("block_size", 1.0) <= 0.0) r.error("block_size", "must be > 0");
  const double replication = r.number("replication", 1.0);
  const double nodes = r.number("cluster_nodes", 1.0);
  if (replication < 1.0) r.error("replication", "must be >= 1");
  if (nodes < 1.0) r.error("cluster_nodes", "must be >= 1");
  if (nodes >= 1.0 && replication > nodes) {
    r.error("replication",
            util::format("replication %g exceeds the training cluster size (%g nodes)",
                         replication, nodes),
            "the model was trained under an impossible configuration; retrain");
  }
  const double lo = r.number("min_input_bytes", 0.0);
  const double hi = r.number("max_input_bytes", 0.0);
  if (lo > hi) r.error("min_input_bytes", "training input range is inverted");
}

std::set<std::string> modelled_class_keys() {
  std::set<std::string> keys;
  for (std::size_t i = 0; i < net::kNumFlowKinds; ++i) {
    keys.insert(net::flow_kind_name(static_cast<net::FlowKind>(i)));
  }
  return keys;
}

void check_model(const util::Json& doc, util::Diagnostics& diagnostics) {
  util::JsonReader r(doc, "", diagnostics);
  if (!r.is_object()) {
    diagnostics.error("$", "a model must be a JSON object");
    return;
  }
  const util::Json* job_name = r.find("job_name");
  if (job_name == nullptr || !job_name->is_string() || job_name->as_string().empty()) {
    r.error("job_name", "missing or empty job name", "name the workload the model was trained on");
  }
  if (const util::Json* context = r.find("context")) lint_context(*context, diagnostics);
  if (const util::Json* fit = r.find("duration_vs_input")) {
    lint_linear_fit(*fit, "duration_vs_input", diagnostics);
  }
  const std::set<std::string> class_keys = modelled_class_keys();
  if (const util::Json* classes = r.find("classes")) {
    if (!classes->is_object()) {
      r.error("classes", "must map class names to class models");
    } else {
      for (const auto& [key, cls] : classes->as_object()) {
        if (class_keys.count(key) == 0) {
          diagnostics.warning(
              "classes." + key, "unknown traffic class (the loader ignores it)",
              "one of: " + util::join({class_keys.begin(), class_keys.end()}, ", "));
          continue;
        }
        lint_class_model(cls, "classes." + key, diagnostics);
      }
    }
  }
  if (const util::Json* volumes = r.find("volume_vs_input")) {
    if (!volumes->is_object()) {
      r.error("volume_vs_input", "must map class names to linear fits");
    } else {
      for (const auto& [key, fit] : volumes->as_object()) {
        if (class_keys.count(key) == 0) {
          diagnostics.warning("volume_vs_input." + key,
                              "unknown traffic class (the loader ignores it)");
          continue;
        }
        lint_linear_fit(fit, "volume_vs_input." + key, diagnostics);
      }
    }
  }
}

}  // namespace

const char* file_kind_name(FileKind kind) {
  switch (kind) {
    case FileKind::kScenario:
      return "scenario";
    case FileKind::kFaultPlan:
      return "fault_plan";
    case FileKind::kModel:
      return "model";
    case FileKind::kModelBank:
      return "model_bank";
    case FileKind::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::size_t LintReport::num_errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) { return d.severity == Severity::kError; }));
}

std::size_t LintReport::num_warnings() const {
  return diagnostics.size() - num_errors();
}

void lint_scenario(const util::Json& doc, const std::string& file,
                   std::vector<Diagnostic>& out) {
  util::Diagnostics diagnostics(file);
  (void)core::parse_scenario(doc, diagnostics);
  append(out, diagnostics);
}

void lint_fault_plan(const util::Json& array, const std::string& file,
                     std::vector<Diagnostic>& out) {
  if (!array.is_array()) {
    add(out, file, "$", "a fault plan must be a JSON array of events");
    return;
  }
  // Standalone plans carry no cluster, so worker range and horizon checks
  // wait until the plan is paired with a scenario.
  util::Diagnostics diagnostics(file);
  (void)hadoop::parse_fault_plan(array, diagnostics, "$");
  append(out, diagnostics);
}

void lint_model(const util::Json& doc, const std::string& file, std::vector<Diagnostic>& out) {
  util::Diagnostics diagnostics(file);
  check_model(doc, diagnostics);
  append(out, diagnostics);
}

void lint_model_bank(const util::Json& doc, const std::string& file,
                     std::vector<Diagnostic>& out) {
  if (!doc.is_object() || !doc.contains("models") || !doc.at("models").is_array()) {
    add(out, file, "models", "a model bank is an object with a 'models' array");
    return;
  }
  const auto& models = doc.at("models").as_array();
  for (std::size_t i = 0; i < models.size(); ++i) {
    std::vector<Diagnostic> entry;
    lint_model(models[i], file, entry);
    for (auto& d : entry) {
      d.key = util::format("models[%zu].%s", i, d.key.c_str());
      out.push_back(std::move(d));
    }
  }
}

LintReport lint_document(const util::Json& doc, const std::string& file) {
  LintReport report;
  if (doc.is_array()) {
    report.kind = FileKind::kFaultPlan;
    lint_fault_plan(doc, file, report.diagnostics);
  } else if (doc.is_object() && doc.contains("jobs")) {
    report.kind = FileKind::kScenario;
    lint_scenario(doc, file, report.diagnostics);
  } else if (doc.is_object() && doc.contains("models")) {
    report.kind = FileKind::kModelBank;
    lint_model_bank(doc, file, report.diagnostics);
  } else if (doc.is_object() && (doc.contains("classes") || doc.contains("job_name"))) {
    report.kind = FileKind::kModel;
    lint_model(doc, file, report.diagnostics);
  } else {
    report.kind = FileKind::kUnknown;
    add(report.diagnostics, file, "$",
        "unrecognized document: not a scenario, fault plan, model, or model bank",
        "scenarios have \"jobs\", models \"classes\", banks \"models\"; fault plans are arrays");
  }
  return report;
}

LintReport lint_file(const std::string& path) {
  util::Json doc;
  try {
    doc = util::Json::load_file(path);
  } catch (const std::exception& e) {
    // I/O and syntax failures (including duplicate object keys) are lint
    // findings like any other, so a broken file still produces a located,
    // actionable report instead of an exception.
    LintReport report;
    add(report.diagnostics, path, "$", e.what(),
        "fix the JSON syntax before semantic checks can run");
    return report;
  }
  return lint_document(doc, path);
}

void print_report(const LintReport& report, std::ostream& os) {
  for (const auto severity : {Severity::kError, Severity::kWarning}) {
    for (const auto& d : report.diagnostics) {
      if (d.severity != severity) continue;
      util::print_diagnostic_line(os, d.severity == Severity::kError, d.to_string());
    }
  }
}

}  // namespace keddah::lint

// KeddahModel: the trained traffic model of one MapReduce job family under
// one cluster configuration — Keddah's primary artefact. It bundles the
// four per-class component models with job-level scaling laws, and can be
// persisted to JSON for use by separate replay/what-if tools.
#pragma once

#include <array>
#include <string>

#include "model/flow_models.h"
#include "net/flow.h"
#include "stats/regression.h"
#include "util/json.h"

namespace keddah::model {

/// Traffic classes Keddah models (control is modelled, "other" is not).
inline constexpr std::array<net::FlowKind, 4> kModelledClasses = {
    net::FlowKind::kHdfsRead, net::FlowKind::kShuffle, net::FlowKind::kHdfsWrite,
    net::FlowKind::kControl};

/// Summary of the configuration the model was trained under; generation for
/// materially different configurations is extrapolation and is reported as
/// such.
struct TrainingContext {
  std::uint64_t block_size = 0;
  std::uint32_t replication = 0;
  std::size_t cluster_nodes = 0;
  std::size_t num_runs = 0;
  double min_input_bytes = 0.0;
  double max_input_bytes = 0.0;

  util::Json to_json() const;
  /// Reads a context at key path `path`; a count of 0 means "not recorded",
  /// as in the defaults above.
  static TrainingContext from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                   const std::string& path);
};

/// The full per-job-type traffic model.
class KeddahModel {
 public:
  KeddahModel() = default;

  const std::string& job_name() const { return job_name_; }
  void set_job_name(std::string name) { job_name_ = std::move(name); }

  TrainingContext& context() { return context_; }
  const TrainingContext& context() const { return context_; }

  /// Per-class component model access; throws std::out_of_range for
  /// classes outside kModelledClasses.
  ClassModel& class_model(net::FlowKind kind);
  const ClassModel& class_model(net::FlowKind kind) const;

  /// Job wall-clock seconds as a function of input bytes.
  stats::LinearFit& duration_model() { return duration_vs_input_; }
  const stats::LinearFit& duration_model() const { return duration_vs_input_; }

  /// Per-class network bytes as a function of input bytes (through origin).
  stats::LinearFit& volume_model(net::FlowKind kind);
  const stats::LinearFit& volume_model(net::FlowKind kind) const;

  /// Predicted job duration for an input size (clamped positive).
  double predict_duration(double input_bytes) const;

  /// Predicted per-class traffic volume for an input size.
  double predict_volume(net::FlowKind kind, double input_bytes) const;

  util::Json to_json() const;
  /// Reads a model at key path `path` ("" for a whole document), recording
  /// every defect in `diagnostics`: this is keddah-lint's model check.
  static KeddahModel from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                               const std::string& path = "");
  /// As above, throwing the first defect as a util::SpecError naming `file`.
  static KeddahModel from_json(const util::Json& doc, const std::string& file = "json") {
    return util::parse_or_throw(file, [&](util::Diagnostics& d) { return from_json(doc, d); });
  }
  void save(const std::string& path) const;
  /// Loads and checks a model file; defects throw naming `path`.
  static KeddahModel load(const std::string& path);

 private:
  static std::size_t class_index(net::FlowKind kind);

  std::string job_name_;
  TrainingContext context_;
  std::array<ClassModel, kModelledClasses.size()> classes_;
  std::array<stats::LinearFit, kModelledClasses.size()> volume_vs_input_;
  stats::LinearFit duration_vs_input_;
};

}  // namespace keddah::model

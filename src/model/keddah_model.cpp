#include "model/keddah_model.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/json_reader.h"
#include "util/strings.h"

namespace keddah::model {

util::Json TrainingContext::to_json() const {
  util::Json doc = util::Json::object();
  doc["block_size"] = util::Json(static_cast<std::uint64_t>(block_size));
  doc["replication"] = util::Json(static_cast<std::uint64_t>(replication));
  doc["cluster_nodes"] = util::Json(static_cast<std::uint64_t>(cluster_nodes));
  doc["num_runs"] = util::Json(static_cast<std::uint64_t>(num_runs));
  doc["min_input_bytes"] = util::Json(min_input_bytes);
  doc["max_input_bytes"] = util::Json(max_input_bytes);
  return doc;
}

TrainingContext TrainingContext::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                           const std::string& path) {
  TrainingContext ctx;
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("must be an object")) return ctx;
  const std::string unrecorded = "must be >= 0 (0 = not recorded)";
  ctx.block_size = r.count("block_size", 0, 0.0, unrecorded);
  ctx.replication = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      r.count("replication", 0, 0.0, unrecorded), std::numeric_limits<std::uint32_t>::max()));
  ctx.cluster_nodes = r.count("cluster_nodes", 0, 0.0, unrecorded);
  if (ctx.cluster_nodes != 0 && ctx.replication > ctx.cluster_nodes) {
    r.error("replication",
            util::format("replication %u exceeds the training cluster size (%zu nodes)",
                         ctx.replication, ctx.cluster_nodes),
            "the model was trained under an impossible configuration; retrain");
  }
  ctx.num_runs = r.count("num_runs", 0, 0.0, "must be >= 0");
  ctx.min_input_bytes = r.number("min_input_bytes", 0.0);
  ctx.max_input_bytes = r.number("max_input_bytes", 0.0);
  if (ctx.min_input_bytes > ctx.max_input_bytes) {
    r.error("min_input_bytes", "training input range is inverted");
  }
  return ctx;
}

std::size_t KeddahModel::class_index(net::FlowKind kind) {
  for (std::size_t i = 0; i < kModelledClasses.size(); ++i) {
    if (kModelledClasses[i] == kind) return i;
  }
  throw std::out_of_range("keddah model: class not modelled");
}

ClassModel& KeddahModel::class_model(net::FlowKind kind) { return classes_[class_index(kind)]; }

const ClassModel& KeddahModel::class_model(net::FlowKind kind) const {
  return classes_[class_index(kind)];
}

stats::LinearFit& KeddahModel::volume_model(net::FlowKind kind) {
  return volume_vs_input_[class_index(kind)];
}

const stats::LinearFit& KeddahModel::volume_model(net::FlowKind kind) const {
  return volume_vs_input_[class_index(kind)];
}

double KeddahModel::predict_duration(double input_bytes) const {
  return std::max(0.0, duration_vs_input_.predict(input_bytes));
}

double KeddahModel::predict_volume(net::FlowKind kind, double input_bytes) const {
  return std::max(0.0, volume_model(kind).predict(input_bytes));
}

util::Json KeddahModel::to_json() const {
  util::Json doc = util::Json::object();
  doc["job_name"] = util::Json(job_name_);
  doc["context"] = context_.to_json();
  doc["duration_vs_input"] = duration_vs_input_.to_json();
  util::Json classes = util::Json::object();
  util::Json volumes = util::Json::object();
  for (std::size_t i = 0; i < kModelledClasses.size(); ++i) {
    const char* key = net::flow_kind_name(kModelledClasses[i]);
    classes[key] = classes_[i].to_json();
    volumes[key] = volume_vs_input_[i].to_json();
  }
  doc["classes"] = classes;
  doc["volume_vs_input"] = volumes;
  return doc;
}

KeddahModel KeddahModel::from_json(const util::Json& doc, util::Diagnostics& diagnostics,
                                   const std::string& path) {
  KeddahModel m;
  util::JsonReader r(doc, path, diagnostics);
  if (!r.expect_object("a model must be a JSON object")) return m;
  const util::Json* job_name = r.find("job_name");
  if (job_name == nullptr || !job_name->is_string() || job_name->as_string().empty()) {
    r.error("job_name", "missing or empty job name", "name the workload the model was trained on");
  } else {
    m.job_name_ = job_name->as_string();
  }
  if (const util::Json* context = r.find("context")) {
    m.context_ = TrainingContext::from_json(*context, diagnostics, r.key("context"));
  }
  if (const util::Json* fit = r.find("duration_vs_input")) {
    m.duration_vs_input_ =
        stats::LinearFit::from_json(*fit, diagnostics, r.key("duration_vs_input"));
  }
  // Both class maps are keyed by flow_kind_name; their readers warn about
  // any other key.
  static const util::Json kAbsent = util::Json::object();
  const util::Json* classes = r.find("classes");
  const util::Json* volumes = r.find("volume_vs_input");
  util::JsonReader class_reader(classes != nullptr ? *classes : kAbsent, r.key("classes"),
                                diagnostics);
  util::JsonReader volume_reader(volumes != nullptr ? *volumes : kAbsent,
                                 r.key("volume_vs_input"), diagnostics);
  class_reader.expect_object("must map class names to class models");
  volume_reader.expect_object("must map class names to linear fits");
  for (std::size_t i = 0; i < kModelledClasses.size(); ++i) {
    const char* name = net::flow_kind_name(kModelledClasses[i]);
    if (const util::Json* cls = class_reader.find(name)) {
      m.classes_[i] = ClassModel::from_json(*cls, diagnostics, class_reader.key(name));
    }
    if (const util::Json* fit = volume_reader.find(name)) {
      m.volume_vs_input_[i] =
          stats::LinearFit::from_json(*fit, diagnostics, volume_reader.key(name));
    }
  }
  return m;
}

void KeddahModel::save(const std::string& path) const { to_json().save_file(path); }

KeddahModel KeddahModel::load(const std::string& path) {
  return from_json(util::Json::load_file(path), path);
}

}  // namespace keddah::model

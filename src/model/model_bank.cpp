#include "model/model_bank.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/json_reader.h"
#include "util/strings.h"

namespace keddah::model {

void ModelBank::add(KeddahModel model) {
  models_.push_back(std::make_unique<KeddahModel>(std::move(model)));
}

std::vector<std::string> ModelBank::job_names() const {
  std::set<std::string> names;
  for (const auto& m : models_) names.insert(m->job_name());
  return {names.begin(), names.end()};
}

std::vector<const KeddahModel*> ModelBank::models_for(const std::string& job_name) const {
  std::vector<const KeddahModel*> out;
  for (const auto& m : models_) {
    if (m->job_name() == job_name) out.push_back(m.get());
  }
  return out;
}

const KeddahModel* ModelBank::find_exact(const std::string& job_name, std::uint64_t block_size,
                                         std::uint32_t replication,
                                         std::size_t cluster_nodes) const {
  for (const auto& m : models_) {
    const auto& ctx = m->context();
    if (m->job_name() == job_name && ctx.block_size == block_size &&
        ctx.replication == replication && ctx.cluster_nodes == cluster_nodes) {
      return m.get();
    }
  }
  return nullptr;
}

double ModelBank::config_distance(const TrainingContext& a, std::uint64_t block_size,
                                  std::uint32_t replication, std::size_t cluster_nodes) {
  auto log_ratio = [](double x, double y) {
    if (x <= 0.0 || y <= 0.0) return x == y ? 0.0 : 10.0;  // unknown dims are distant
    return std::fabs(std::log2(x / y));
  };
  return log_ratio(static_cast<double>(a.block_size), static_cast<double>(block_size)) +
         std::fabs(static_cast<double>(a.replication) - static_cast<double>(replication)) +
         log_ratio(static_cast<double>(a.cluster_nodes), static_cast<double>(cluster_nodes));
}

const KeddahModel* ModelBank::select(const std::string& job_name, std::uint64_t block_size,
                                     std::uint32_t replication,
                                     std::size_t cluster_nodes) const {
  const KeddahModel* best = nullptr;
  double best_distance = 0.0;
  for (const auto& m : models_) {
    if (m->job_name() != job_name) continue;
    const double d = config_distance(m->context(), block_size, replication, cluster_nodes);
    if (best == nullptr || d < best_distance) {
      best = m.get();
      best_distance = d;
    }
  }
  return best;
}

util::Json ModelBank::to_json() const {
  util::Json arr = util::Json::array();
  for (const auto& m : models_) arr.push_back(m->to_json());
  util::Json doc = util::Json::object();
  doc["models"] = std::move(arr);
  return doc;
}

ModelBank ModelBank::from_json(const util::Json& doc, util::Diagnostics& diagnostics) {
  ModelBank bank;
  util::JsonReader r(doc, "", diagnostics);
  const util::Json* models = r.find("models");
  if (models == nullptr || !models->is_array()) {
    diagnostics.error("models", "a model bank is an object with a 'models' array");
    return bank;
  }
  for (std::size_t i = 0; i < models->size(); ++i) {
    bank.add(KeddahModel::from_json(models->at(i), diagnostics, util::format("models[%zu]", i)));
  }
  return bank;
}

void ModelBank::save(const std::string& path) const { to_json().save_file(path); }

ModelBank ModelBank::load(const std::string& path) {
  return from_json(util::Json::load_file(path), path);
}

}  // namespace keddah::model

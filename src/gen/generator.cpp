#include "gen/generator.h"

#include <algorithm>
#include <cmath>

#include "model/builder.h"
#include "util/log.h"

namespace keddah::gen {

double SyntheticTrafficSchedule::total_bytes() const {
  double total = 0.0;
  for (const auto& f : flows) total += f.bytes;
  return total;
}

std::size_t SyntheticTrafficSchedule::count(net::FlowKind kind) const {
  std::size_t n = 0;
  for (const auto& f : flows) n += (f.kind == kind);
  return n;
}

double SyntheticTrafficSchedule::bytes_of(net::FlowKind kind) const {
  double total = 0.0;
  for (const auto& f : flows) {
    if (f.kind == kind) total += f.bytes;
  }
  return total;
}

TrafficGenerator::TrafficGenerator(const model::KeddahModel& model, util::Rng rng,
                                   GeneratorOptions options)
    : model_(model), rng_(rng), options_(options) {}

Scenario TrafficGenerator::resolve(const Scenario& scenario) const {
  Scenario out = scenario;
  if (out.num_maps == 0) {
    const double block = static_cast<double>(
        model_.context().block_size != 0 ? model_.context().block_size : 128ull << 20);
    out.num_maps = static_cast<std::size_t>(std::max(1.0, std::ceil(out.input_bytes / block)));
  }
  if (out.num_reducers == 0) {
    const double gb = out.input_bytes / (1024.0 * 1024.0 * 1024.0);
    out.num_reducers =
        std::clamp<std::size_t>(static_cast<std::size_t>(std::max(1.0, gb)) * 4, 4, 64);
  }
  if (out.num_hosts == 0) out.num_hosts = std::max<std::size_t>(model_.context().cluster_nodes, 2);
  return out;
}

SyntheticTrafficSchedule TrafficGenerator::generate(const Scenario& raw) {
  const Scenario scenario = resolve(raw);
  SyntheticTrafficSchedule schedule;
  schedule.predicted_duration = model_.predict_duration(scenario.input_bytes);
  const double duration = std::max(schedule.predicted_duration, 1.0);

  // Build a pseudo training-run carrying the scenario's regressor inputs.
  model::TrainingRun regressor_inputs;
  regressor_inputs.input_bytes = scenario.input_bytes;
  regressor_inputs.num_maps = scenario.num_maps;
  regressor_inputs.num_reducers = scenario.num_reducers;
  regressor_inputs.job_start = 0.0;
  regressor_inputs.job_end = duration;

  for (const net::FlowKind kind : model::kModelledClasses) {
    const auto& cm = model_.class_model(kind);
    if (cm.training_flows == 0) continue;
    const double x = model::class_regressor(kind, regressor_inputs);
    const std::size_t count = cm.count.predict(x, net::flow_kind_name(kind));
    if (count == 0) continue;

    std::vector<SyntheticFlow> class_flows;
    class_flows.reserve(count);
    double class_bytes = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      SyntheticFlow f;
      f.kind = kind;
      f.bytes = cm.size.sample(rng_);
      f.start = cm.temporal.sample_start(rng_, duration);
      // Endpoints: uniform over hosts with src != dst. Host-local transfers
      // never appear in captures, so the model only ever sees cross-host
      // flows; uniform placement mirrors hash partitioning / random
      // container placement.
      f.src_host = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(scenario.num_hosts) - 1));
      f.dst_host = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(scenario.num_hosts) - 2));
      if (f.dst_host >= f.src_host) ++f.dst_host;
      class_bytes += f.bytes;
      class_flows.push_back(f);
    }

    if (options_.normalize_volume && class_bytes > 0.0) {
      const double target = model_.predict_volume(kind, scenario.input_bytes);
      if (target > 0.0) {
        const double scale = target / class_bytes;
        for (auto& f : class_flows) f.bytes *= scale;
      }
    }
    schedule.flows.insert(schedule.flows.end(), class_flows.begin(), class_flows.end());
  }

  std::sort(schedule.flows.begin(), schedule.flows.end(),
            [](const SyntheticFlow& a, const SyntheticFlow& b) { return a.start < b.start; });
  return schedule;
}

SyntheticTrafficSchedule generate_mix(std::span<const MixEntry> entries, util::Rng rng,
                                      GeneratorOptions options) {
  SyntheticTrafficSchedule mix;
  for (const auto& entry : entries) {
    if (entry.model == nullptr) throw std::invalid_argument("generate_mix: null model");
    TrafficGenerator generator(*entry.model, rng.split(), options);
    auto schedule = generator.generate(entry.scenario);
    for (auto& flow : schedule.flows) {
      flow.start += entry.submit_at;
      mix.flows.push_back(flow);
    }
    mix.predicted_duration = std::max(
        mix.predicted_duration, entry.submit_at + schedule.predicted_duration);
  }
  std::sort(mix.flows.begin(), mix.flows.end(),
            [](const SyntheticFlow& a, const SyntheticFlow& b) { return a.start < b.start; });
  return mix;
}

}  // namespace keddah::gen

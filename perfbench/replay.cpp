// replay-scaleup: a sort model trained in set-up answers a what-if above its
// training range by open-loop replay on the same testbed. Open-loop replay
// merges the whole fabric into one max-min component, so this is the dense
// fair-share solve, growing superlinearly with the flow count.
#include <string>
#include <vector>

#include "harness.h"
#include "keddah/toolchain.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace perfbench {

namespace kc = keddah::core;
namespace kn = keddah::net;

namespace {

constexpr std::uint64_t kGiB = 1ull << 30;
/// Training grid 1-6 GB x 2 repetitions; the what-if asks for 8 GB.
constexpr std::size_t kTrainSizes = 6;
constexpr std::size_t kTrainRepetitions = 2;
constexpr std::uint64_t kWhatIfBytes = 8 * kGiB;
/// The replay cost of one what-if moves by +-15% with the training seed and
/// the generator seed (how much of the schedule overlaps in time). Set-up
/// therefore trains kModels models on derived seeds, and one cycle of timed
/// work asks each of them the same what-if; wall_s times whole cycles.
constexpr std::uint64_t kModels = 4;

struct Trained {
  keddah::hadoop::ClusterConfig cluster;
  keddah::model::KeddahModel model;
  kn::Topology topology;
};

Trained train_sort(std::uint64_t seed, Tracer& tracer, std::uint64_t run) {
  Trained out{testbed(), {}, {}};
  kc::CaptureSpec spec;
  spec.workload = keddah::workloads::Workload::kSort;
  for (std::size_t s = 1; s <= kTrainSizes; ++s) spec.input_sizes.push_back(s * kGiB);
  spec.repetitions = kTrainRepetitions;
  spec.seed = seed;
  spec.threads = 1;
  std::vector<keddah::model::TrainingRun> runs;
  {
    auto span = tracer.scope("capture", run);
    runs = kc::capture_runs(out.cluster, spec);
    std::size_t flows = 0;
    for (const auto& r : runs) flows += r.trace.size();
    span.count("flows", static_cast<double>(flows));
  }
  {
    auto span = tracer.scope("train", run);
    out.model = kc::train("sort", runs, out.cluster);
    span.count("runs", static_cast<double>(runs.size()));
  }
  out.topology = out.cluster.build_topology();
  return out;
}

std::uint64_t trace_digest(const keddah::capture::Trace& trace) {
  std::uint64_t h = kFnvOffset;
  for (const auto& r : trace.records()) {
    h = fnv1a_value(r.src_id, h);
    h = fnv1a_value(r.dst_id, h);
    h = fnv1a_value(r.src_port, h);
    h = fnv1a_value(r.dst_port, h);
    h = fnv1a_value(r.bytes, h);
    h = fnv1a_value(r.start, h);
    h = fnv1a_value(r.end, h);
  }
  return h;
}

/// Replays a schedule through net::Network exactly as gen::replay does (same
/// host mapping, loopback rate and injection order) to read the scheduler's
/// counters, which gen::replay does not return.
struct NetReplay {
  kn::SchedulerStats stats;
  std::size_t completions = 0;
  double makespan = 0.0;
};

NetReplay net_replay(const keddah::gen::SyntheticTrafficSchedule& schedule,
                     const kn::Topology& topology) {
  keddah::sim::Simulator sim;
  kn::NetworkOptions options;
  options.loopback = keddah::util::Rate::bps(40.0e9);
  kn::Network network(sim, topology, options);
  const auto hosts = network.topology().hosts();
  NetReplay out;
  for (const auto& f : schedule.flows) {
    const kn::NodeId src = hosts[f.src_host % hosts.size()];
    kn::NodeId dst = hosts[f.dst_host % hosts.size()];
    if (dst == src) dst = hosts[(f.dst_host + 1) % hosts.size()];
    sim.schedule_at(f.start, [&network, &out, src, dst, f] {
      network.start_flow(src, dst, keddah::util::Bytes(f.bytes),
                         keddah::gen::meta_for_kind(f.kind), [&out](const kn::Flow& flow) {
                           ++out.completions;
                           if (flow.end_time > out.makespan) out.makespan = flow.end_time;
                         });
    });
  }
  sim.run();
  out.stats = network.scheduler_stats();
  return out;
}

}  // namespace

Result run_replay(const Options& options) {
  Result result;
  Tracer tracer(false);

  // Set-up is what a user pays before asking: capture the training grid and
  // fit the model; setup_s is the median over the kModels set-ups.
  std::vector<double> setup_s;
  std::vector<Trained> trained;
  tracer.set_enabled(options.trace);
  for (std::uint64_t m = 0; m < kModels; ++m) {
    const Clock::time_point t0 = Clock::now();
    trained.push_back(train_sort(keddah::util::derive_seed(options.seed, m), tracer, m));
    setup_s.push_back(seconds_since(t0));
  }

  kc::ReproduceSpec spec;
  spec.scenario.input_bytes = static_cast<double>(kWhatIfBytes);
  spec.scenario.num_hosts = trained.front().cluster.num_workers();

  std::vector<double> call_s;
  std::vector<double> cycle_s;
  std::vector<double> traced_cycle_s;
  std::vector<std::uint64_t> call_digest;
  std::vector<double> call_makespan;
  // Two cycles at least, so every call is checked against its repeat. A
  // traced run makes one untraced and one traced cycle; the traced calls
  // time the generator and the replay separately, which is all that
  // core::generate_and_replay does.
  const Clock::time_point window = Clock::now();
  for (std::uint64_t cycle = 0;
       cycle < 2 || (!options.trace && seconds_since(window) < options.seconds); ++cycle) {
    const bool traced = options.trace && cycle == 1;
    tracer.set_enabled(traced);
    Clock::time_point cycle_start = Clock::now();
    for (std::uint64_t m = 0; m < kModels; ++m) {
      // Span run ids 0..kModels-1 are the set-ups; calls follow them.
      const std::uint64_t call = kModels + cycle * kModels + m;
      const Trained& model = trained[m];
      spec.seed = keddah::util::derive_seed(options.seed, kModels + m);
      kc::ReproduceResult out;
      const Clock::time_point t0 = Clock::now();
      if (!traced) {
        out = kc::generate_and_replay(model.model, spec, model.topology);
      } else {
        {
          auto span = tracer.scope("generate", call);
          keddah::gen::TrafficGenerator generator(model.model, keddah::util::Rng(spec.seed),
                                                  spec.gen_options);
          out.schedule = generator.generate(spec.scenario);
          span.count("flows", static_cast<double>(out.schedule.flows.size()));
        }
        auto span = tracer.scope("replay", call);
        out.replay = keddah::gen::replay(out.schedule, model.topology, 40.0e9, spec.spill_dir);
        span.count("flows", static_cast<double>(out.replay.trace.size()));
        span.count("makespan_s", out.replay.makespan);
      }
      if (!traced) call_s.push_back(seconds_since(t0));

      const std::size_t flows = out.schedule.flows.size();
      const std::uint64_t d = trace_digest(out.replay.trace);
      if (cycle == 0) {
        call_digest.push_back(d);
        call_makespan.push_back(out.replay.makespan);
      }
      const char* failure =
          flows == 0 ? "empty schedule"
          : out.replay.flow_completion_times.size() != flows ? "not every flow completed"
          : out.replay.makespan != call_makespan[m] ? "makespan differs from the first cycle"
          : d != call_digest[m] ? "trace digest differs from the first cycle"
                                   : nullptr;
      result.operation(failure == nullptr,
                       "replay " + std::to_string(call) + ": " + (failure ? failure : ""));
      if (!traced) continue;

      // Scheduler counters come from a second, untimed replay of the same
      // schedule through net::Network; it must agree with gen::replay.
      const Clock::time_point paused = Clock::now();
      {
        auto net_span = tracer.scope("net", call);
        const NetReplay net = net_replay(out.schedule, model.topology);
        net_span.count("reshares", static_cast<double>(net.stats.reshares));
        net_span.count("links_per_reshare", net.stats.links_per_reshare());
        net_span.count("flows_visited", static_cast<double>(net.stats.flows_visited));
        net_span.count("flows_rerated", static_cast<double>(net.stats.flows_rerated));
        net_span.count("heap_ops", static_cast<double>(net.stats.heap_ops));
        result.operation(net.completions == flows && net.makespan == out.replay.makespan,
                         "net replay " + std::to_string(call) + ": disagrees with gen::replay");
      }
      cycle_start += Clock::now() - paused;  // the check replay is not timed
    }
    (traced ? traced_cycle_s : cycle_s).push_back(seconds_since(cycle_start));
  }

  result.end_to_end["wall_s"] = median(cycle_s);
  result.end_to_end["setup_s"] = median(setup_s);
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();
  result.end_to_end["whatif_p50_ms"] = 1e3 * quantile(call_s, 0.50);
  result.end_to_end["whatif_p99_ms"] = 1e3 * quantile(call_s, 0.99);
  result.end_to_end["whatif_qps"] = static_cast<double>(call_s.size()) / sum(call_s);

  if (options.trace) {
    const double capture_s = median(tracer.per_run("capture"));
    const double replay_s = median(tracer.per_run("replay"));
    const double replay_flows = median(tracer.per_run("replay", "flows"));
    result.layers["trace.overhead_s"] = median(traced_cycle_s) - median(cycle_s);
    result.layers["trace.spans"] = static_cast<double>(tracer.size());
    result.layers["capture.wall_s"] = capture_s;
    result.layers["capture.flows"] = median(tracer.per_run("capture", "flows"));
    result.layers["capture.flows_per_s"] = result.layers["capture.flows"] / capture_s;
    result.layers["train.wall_s"] = median(tracer.per_run("train"));
    result.layers["train.runs"] = median(tracer.per_run("train", "runs"));
    result.layers["generate.wall_s"] = median(tracer.per_run("generate"));
    result.layers["generate.flows"] = median(tracer.per_run("generate", "flows"));
    result.layers["replay.wall_s"] = replay_s;
    result.layers["replay.flows_per_s"] = replay_flows / replay_s;
    result.layers["replay.makespan_s"] = median(tracer.per_run("replay", "makespan_s"));
    for (const char* count :
         {"reshares", "links_per_reshare", "flows_visited", "flows_rerated", "heap_ops"}) {
      result.layers[std::string("net.") + count] = median(tracer.per_run("net", count));
    }
    tracer.write(options.work_dir + "/spans-replay-scaleup.json", options.workload, options.seed);
  }
  return result;
}

}  // namespace perfbench

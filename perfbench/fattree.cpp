// scale-fattree: the workloads::scale scenario on an 11,664-host (k=36)
// oversubscribed fat-tree, injected by one self-rescheduling event and
// captured to a KSPL spill, as bench/perf_scale runs it. The fair-share
// components stay rack-bounded here, the opposite regime to replay-scaleup.
// Four local waves instead of perf_scale's sixteen keep one repetition near
// four seconds, so a run medians three. About 2.8 s of it is the fresh
// Network's lazy per-host routing on first use (one local wave alone takes
// that long), so fewer flows would hardly shorten it.
#include <cmath>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "capture/collector.h"
#include "capture/spill.h"
#include "harness.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads/scale.h"

namespace perfbench {

namespace kc = keddah::capture;
namespace kn = keddah::net;
namespace kw = keddah::workloads;

namespace {

kw::ScaleSpec scale_spec(std::uint64_t seed) {
  kw::ScaleSpec spec;
  spec.local_waves = 4;
  spec.seed = keddah::util::derive_seed(seed, 0);
  return spec;
}

struct RepOutput {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::string failure;
};

RepOutput one_rep(const kw::ScaleSpec& spec, const std::string& spill_dir, Tracer& tracer,
                  std::uint64_t rep) {
  RepOutput out;
  // Set-up: the fabric, the engine on it, the schedule and the spill file.
  const Clock::time_point t0 = Clock::now();
  keddah::sim::Simulator sim;
  kn::Topology topology;
  {
    auto span = tracer.scope("topology", rep);
    topology = kw::make_scale_topology(spec);
  }
  kn::NetworkOptions net_options;
  net_options.model_latency = false;
  kn::Network net(sim, std::move(topology), net_options);
  kw::ScaleSchedule schedule;
  {
    auto span = tracer.scope("schedule", rep);
    schedule = kw::make_scale_schedule(net.topology(), spec);
    span.count("flows", static_cast<double>(schedule.size()));
  }
  kc::CollectorOptions collector_options;
  collector_options.spill_dir = spill_dir;
  kc::FlowCollector collector(net, collector_options);
  const std::size_t n_flows = schedule.size();
  double scheduled_bytes = 0.0;
  for (double b : schedule.bytes) scheduled_bytes += b;
  const Clock::time_point t1 = Clock::now();

  // Timed work: run the fabric to completion, finalize the spill and read
  // the whole capture back.
  std::size_t next = 0;
  std::function<void()> inject = [&] {
    while (next < n_flows && schedule.start[next] <= sim.now()) {
      net.start_flow(schedule.src[next], schedule.dst[next],
                     keddah::util::Bytes(schedule.bytes[next]), {}, nullptr);
      ++next;
    }
    if (next < n_flows) sim.schedule_at(schedule.start[next], inject);
  };
  if (n_flows > 0) sim.schedule_at(schedule.start[0], inject);
  {
    auto span = tracer.scope("sim", rep);
    sim.run();
    const kn::SchedulerStats& ss = net.scheduler_stats();
    const kn::ArenaStats as = net.arena_stats();
    span.count("events", static_cast<double>(sim.executed()));
    span.count("flows", static_cast<double>(n_flows));
    span.count("reshares", static_cast<double>(ss.reshares));
    span.count("links_per_reshare", ss.links_per_reshare());
    span.count("flows_visited", static_cast<double>(ss.flows_visited));
    span.count("flows_rerated", static_cast<double>(ss.flows_rerated));
    span.count("heap_ops", static_cast<double>(ss.heap_ops));
    span.count("peak_live", static_cast<double>(as.peak_live));
    span.count("slot_reuses", static_cast<double>(as.slot_reuses));
    span.count("compactions", static_cast<double>(as.path_pool_compactions));
  }
  {
    auto span = tracer.scope("spill.finalize", rep);
    collector.finalize_spill();
  }
  std::uint64_t spill_records = 0;
  double spill_bytes = 0.0;
  std::string spill_error;
  {
    auto span = tracer.scope("spill.read", rep);
    try {
      kc::SpillReader reader(collector.spill_path());
      spill_records = reader.size();
      for (std::uint64_t i = 0; i < spill_records; ++i) spill_bytes += reader.record(i).bytes;
    } catch (const std::exception& e) {
      spill_error = e.what();
    }
    span.count("records", static_cast<double>(spill_records));
  }
  const Clock::time_point t2 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  out.wall_s = seconds_between(t1, t2);

  // The perf_scale gates: every flow started and drained, bytes conserved,
  // and the spill holds every flow.
  const double offered = net.offered_bytes().value();
  const double delivered = net.delivered_bytes().value();
  try {
    net.audit_conservation();
  } catch (const std::exception& e) {
    out.failure = std::string("conservation audit: ") + e.what();
    return out;
  }
  if (n_flows == 0 || net.total_flows() != n_flows) {
    out.failure = "not every flow started";
  } else if (net.active_flows() != 0 || net.aborted_flows() != 0) {
    out.failure = "flows left active or aborted";
  } else if (std::fabs(offered - delivered) > 1e-6 * offered + 1.0) {
    out.failure = "offered and delivered bytes differ";
  } else if (!spill_error.empty()) {
    out.failure = "spill unreadable: " + spill_error;
  } else if (spill_records != n_flows ||
             std::fabs(spill_bytes - scheduled_bytes) > 1e-6 * scheduled_bytes) {
    out.failure = "spill incomplete";
  }
  return out;
}

}  // namespace

Result run_fattree(const Options& options) {
  Result result;
  Tracer tracer(false);
  const kw::ScaleSpec spec = scale_spec(options.seed);
  const std::string spill_dir = options.work_dir + "/scale-spill";
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> traced_wall_s;

  // A traced run alternates untraced and traced repetitions, two of each.
  const Clock::time_point window = Clock::now();
  for (std::uint64_t rep = 0;
       options.trace ? rep < 4 : (rep < 2 || seconds_since(window) < options.seconds); ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    tracer.set_enabled(traced);
    const RepOutput out = one_rep(spec, spill_dir, tracer, rep);
    std::error_code ec;
    std::filesystem::remove_all(spill_dir, ec);
    setup_s.push_back(out.setup_s);
    (traced ? traced_wall_s : wall_s).push_back(out.wall_s);
    result.operation(out.failure.empty(), "scale run " + std::to_string(rep) + ": " + out.failure);
  }

  result.end_to_end["wall_s"] = median(wall_s);
  result.end_to_end["setup_s"] = median(setup_s);
  result.end_to_end["peak_rss_mb"] = peak_rss_mb();
  result.end_to_end["whatif_p50_ms"] = 1e3 * quantile(wall_s, 0.50);
  result.end_to_end["whatif_p99_ms"] = 1e3 * quantile(wall_s, 0.99);
  result.end_to_end["whatif_qps"] = static_cast<double>(wall_s.size()) / sum(wall_s);

  if (options.trace) {
    auto one = [&](const char* span, const char* count) {
      return median(tracer.per_run(span, count));
    };
    const double sim_s = median(tracer.per_run("sim"));
    result.layers["trace.overhead_s"] = median(traced_wall_s) - median(wall_s);
    result.layers["trace.spans"] = static_cast<double>(tracer.size());
    result.layers["sim.run_s"] = sim_s;
    result.layers["sim.events"] = one("sim", "events");
    result.layers["sim.events_per_s"] = one("sim", "events") / sim_s;
    result.layers["net.flows_per_s"] = one("sim", "flows") / sim_s;
    for (const char* count :
         {"reshares", "links_per_reshare", "flows_visited", "flows_rerated", "heap_ops"}) {
      result.layers[std::string("net.") + count] = one("sim", count);
    }
    result.layers["arena.peak_live"] = one("sim", "peak_live");
    result.layers["arena.slot_reuses"] = one("sim", "slot_reuses");
    result.layers["arena.compactions"] = one("sim", "compactions");
    result.layers["topology.build_s"] = median(tracer.per_run("topology"));
    result.layers["schedule.build_s"] = median(tracer.per_run("schedule"));
    result.layers["spill.finalize_s"] = median(tracer.per_run("spill.finalize"));
    result.layers["spill.records"] = one("spill.read", "records");
    result.layers["spill.read_s"] = median(tracer.per_run("spill.read"));
    tracer.write(options.work_dir + "/spans-scale-fattree.json", options.workload, options.seed);
  }
  return result;
}

}  // namespace perfbench

// Unit tests for the flow-level network engine: single-flow timing, max-min
// fair sharing, bottleneck behaviour, rate caps, loopback, taps.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "net/network.h"

namespace kn = keddah::net;
namespace ks = keddah::sim;
namespace ku = keddah::util;

namespace {

constexpr double kGbps = 1e9;

struct Harness {
  ks::Simulator sim;
  kn::Network net;
  explicit Harness(kn::Topology topo, kn::NetworkOptions opts = {})
      : net(sim, std::move(topo), opts) {}
};

kn::NetworkOptions no_latency() {
  kn::NetworkOptions opts;
  opts.model_latency = false;
  return opts;
}

}  // namespace

TEST(Network, SingleFlowSaturatesAccessLink) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  double end = -1.0;
  // 1 Gbit payload over 1 Gb/s -> exactly 1 second.
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { end = f.end_time; });
  h.sim.run();
  EXPECT_NEAR(end, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(h.net.delivered_bytes().value(), 1e9 / 8.0);
  EXPECT_EQ(h.net.active_flows(), 0u);
}

TEST(Network, LatencyDelaysStartAndDelivery) {
  kn::NetworkOptions opts;
  opts.model_latency = true;
  Harness h(kn::make_star(2, kGbps, 0.001), opts);  // 2 ms path each way
  const auto& topo = h.net.topology();
  double end = -1.0;
  double start = -1.0;
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {}, [&](const kn::Flow& f) {
    end = f.end_time;
    start = f.start_time;
  });
  h.sim.run();
  EXPECT_NEAR(start, 0.002, 1e-12);       // connection setup
  EXPECT_NEAR(end, 1.0 + 0.004, 1e-9);    // setup + drain + delivery
}

TEST(Network, TwoFlowsShareLinkEqually) {
  Harness h(kn::make_star(3, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  std::vector<double> ends;
  // Both flows sink into h2: its downlink is the bottleneck at 0.5 Gb/s each.
  for (const auto src : {topo.find("h0"), topo.find("h1")}) {
    h.net.start_flow(src, topo.find("h2"), ku::Bytes(1e9 / 8.0), {},
                     [&](const kn::Flow& f) { ends.push_back(f.end_time); });
  }
  h.sim.run();
  ASSERT_EQ(ends.size(), 2u);
  EXPECT_NEAR(ends[0], 2.0, 1e-6);
  EXPECT_NEAR(ends[1], 2.0, 1e-6);
}

TEST(Network, ShortFlowFinishesThenLongSpeedsUp) {
  Harness h(kn::make_star(3, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  double short_end = -1.0;
  double long_end = -1.0;
  // Shared sink downlink. Short: 0.5 Gbit, long: 1.5 Gbit.
  // Phase 1: both at 0.5 Gb/s. Short drains 0.5 Gbit in 1 s.
  // Phase 2: long has 1.0 Gbit left at 1 Gb/s -> finishes at t = 2 s.
  h.net.start_flow(topo.find("h0"), topo.find("h2"), ku::Bytes(0.5e9 / 8.0), {},
                   [&](const kn::Flow& f) { short_end = f.end_time; });
  h.net.start_flow(topo.find("h1"), topo.find("h2"), ku::Bytes(1.5e9 / 8.0), {},
                   [&](const kn::Flow& f) { long_end = f.end_time; });
  h.sim.run();
  EXPECT_NEAR(short_end, 1.0, 1e-6);
  EXPECT_NEAR(long_end, 2.0, 1e-6);
}

TEST(Network, MaxMinRespectsDistinctBottlenecks) {
  // Dumbbell, bottleneck 1 Gb/s, access 1 Gb/s. Flow A: h0->h2 (crosses),
  // flow B: h1->h3 (crosses). Each gets 0.5 Gb/s on the shared middle link.
  Harness h(kn::make_dumbbell(2, 2, kGbps, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  double end_a = -1.0;
  h.net.start_flow(topo.find("h0"), topo.find("h2"), ku::Bytes(0.5e9 / 8.0), {},
                   [&](const kn::Flow& f) { end_a = f.end_time; });
  h.net.start_flow(topo.find("h1"), topo.find("h3"), ku::Bytes(0.5e9 / 8.0), {}, nullptr);
  h.sim.run();
  EXPECT_NEAR(end_a, 1.0, 1e-6);
}

TEST(Network, UnbalancedMaxMinGivesLeftoverToUnconstrained) {
  // Three flows into one 1 Gb/s sink downlink; one of them is capped at
  // 0.1 Gb/s, so the other two split the remaining 0.9 Gb/s.
  Harness h(kn::make_star(4, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const auto sink = topo.find("h3");
  double capped_end = -1.0;
  double free_end = -1.0;
  h.net.start_flow(topo.find("h0"), sink, ku::Bytes(0.1e9 / 8.0), {},
                   [&](const kn::Flow& f) { capped_end = f.end_time; }, ku::Rate::bps(0.1e9));
  h.net.start_flow(topo.find("h1"), sink, ku::Bytes(0.45e9 / 8.0), {},
                   [&](const kn::Flow& f) { free_end = f.end_time; });
  h.net.start_flow(topo.find("h2"), sink, ku::Bytes(0.45e9 / 8.0), {}, nullptr);
  h.sim.run();
  // Capped flow: 0.1 Gbit at 0.1 Gb/s -> 1 s. Free flows: 0.45 Gbit at
  // 0.45 Gb/s -> also 1 s.
  EXPECT_NEAR(capped_end, 1.0, 1e-6);
  EXPECT_NEAR(free_end, 1.0, 1e-6);
}

TEST(Network, RateCapSlowsSoloFlow) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  double end = -1.0;
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { end = f.end_time; }, ku::Rate::bps(0.25e9));
  h.sim.run();
  EXPECT_NEAR(end, 4.0, 1e-6);
}

TEST(Network, LoopbackUsesLoopbackRate) {
  kn::NetworkOptions opts;
  opts.model_latency = false;
  opts.loopback = ku::Rate::bps(8e9);
  Harness h(kn::make_star(2, kGbps, 0.0), opts);
  const auto& topo = h.net.topology();
  double end = -1.0;
  h.net.start_flow(topo.find("h0"), topo.find("h0"), ku::Bytes(1e9), {},
                   [&](const kn::Flow& f) { end = f.end_time; });
  h.sim.run();
  EXPECT_NEAR(end, 1.0, 1e-9);  // 8 Gbit / 8 Gb/s
}

TEST(Network, LoopbackDoesNotConsumeFabric) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  double net_end = -1.0;
  h.net.start_flow(topo.find("h0"), topo.find("h0"), ku::Bytes(1e12), {}, nullptr);
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { net_end = f.end_time; });
  h.sim.run();
  EXPECT_NEAR(net_end, 1.0, 1e-6);  // full rate despite huge loopback flow
}

TEST(Network, CompletionTapSeesAllFlows) {
  Harness h(kn::make_star(3, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  std::vector<kn::Flow> finished;
  h.net.add_completion_tap([&](const kn::Flow& f) { finished.push_back(f); });
  kn::FlowMeta meta;
  meta.src_port = kn::ports::kShuffle;
  meta.job_id = 9;
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1000.0), meta, nullptr);
  h.net.start_flow(topo.find("h1"), topo.find("h1"), ku::Bytes(500.0), {}, nullptr);  // loopback
  h.sim.run();
  ASSERT_EQ(finished.size(), 2u);
  // Taps observe meta annotations.
  bool saw_shuffle = false;
  for (const auto& f : finished) {
    if (f.meta.src_port == kn::ports::kShuffle) {
      saw_shuffle = true;
      EXPECT_EQ(f.meta.job_id, 9u);
    }
  }
  EXPECT_TRUE(saw_shuffle);
}

TEST(Network, StartTapFiresAtFirstByte) {
  kn::NetworkOptions opts;
  opts.model_latency = true;
  Harness h(kn::make_star(2, kGbps, 0.001), opts);
  const auto& topo = h.net.topology();
  double tap_time = -1.0;
  h.net.add_start_tap([&](const kn::Flow&) { tap_time = h.sim.now(); });
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1000.0), {}, nullptr);
  h.sim.run();
  EXPECT_NEAR(tap_time, 0.002, 1e-12);
}

TEST(Network, ManyFlowsConservation) {
  // 8 senders to 8 receivers across a rack tree; total delivered bytes must
  // equal total injected.
  Harness h(kn::make_rack_tree(2, 8, kGbps, 2 * kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const auto hosts = topo.hosts();
  double injected = 0.0;
  int completions = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    const double bytes = 1e6 * static_cast<double>(i + 1);
    injected += bytes;
    h.net.start_flow(hosts[i], hosts[15 - i], ku::Bytes(bytes), {},
                     [&](const kn::Flow&) { ++completions; });
  }
  h.sim.run();
  EXPECT_EQ(completions, 8);
  EXPECT_NEAR(h.net.delivered_bytes().value(), injected, 1.0);
  EXPECT_EQ(h.net.active_flows(), 0u);
}

TEST(Network, ZeroByteFlowCompletesImmediately) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  bool done = false;
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(0.0), {},
                   [&](const kn::Flow& f) {
                     done = true;
                     EXPECT_DOUBLE_EQ(f.end_time, f.start_time);
                   });
  h.sim.run();
  EXPECT_TRUE(done);
}

TEST(Network, NegativeBytesThrows) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  EXPECT_THROW(h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(-1.0), {}, nullptr),
               std::logic_error);
}

TEST(Network, NonFiniteBytesThrows) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(inf), {}, nullptr),
               std::invalid_argument);
  // KEDDAH_CHECK builds reject NaN when the Bytes is constructed.
  if constexpr (!ku::kAuditEnabled) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(nan), {}, nullptr),
                 std::invalid_argument);
  }
  EXPECT_EQ(h.net.total_flows(), 0u);
}

TEST(Network, StaggeredArrivalsShareCorrectly) {
  // Flow A alone for 1 s at 1 Gb/s, then B joins: both at 0.5 Gb/s.
  // A: 1.5 Gbit total => 1 Gbit done at t=1, 0.5 Gbit left at 0.5 => t=2.
  // B: starts t=1 with 0.25 Gbit at 0.5 Gb/s while A active.
  //    B drains at t=1.5; then A speeds back to 1 Gb/s:
  //    at t=1.5 A has 0.25 Gbit left -> done at t=1.75.
  Harness h(kn::make_star(3, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const auto sink = topo.find("h2");
  double end_a = -1.0;
  double end_b = -1.0;
  h.net.start_flow(topo.find("h0"), sink, ku::Bytes(1.5e9 / 8.0), {},
                   [&](const kn::Flow& f) { end_a = f.end_time; });
  h.sim.schedule_at(1.0, [&] {
    h.net.start_flow(topo.find("h1"), sink, ku::Bytes(0.25e9 / 8.0), {},
                     [&](const kn::Flow& f) { end_b = f.end_time; });
  });
  h.sim.run();
  EXPECT_NEAR(end_b, 1.5, 1e-6);
  EXPECT_NEAR(end_a, 1.75, 1e-6);
}

TEST(Network, ZeroRateCapMeansUncapped) {
  // Regression: a caller-computed cap of exactly 0.0 (e.g. a disabled
  // throttle) used to be coerced to a 1 bps cap, near-deadlocking the flow.
  // Any cap <= 0 must behave exactly like the uncapped default.
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  double end_zero = -1.0;
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { end_zero = f.end_time; },
                   ku::Rate::bps(0.0));
  h.sim.run();
  EXPECT_NEAR(end_zero, 1.0, 1e-9);  // full line rate, not 1 bps

  // A negative cap is rejected at Rate construction in KEDDAH_CHECK builds,
  // so the legacy coercion path can only be exercised in release builds.
  if constexpr (!ku::kAuditEnabled) {
    Harness h2(kn::make_star(2, kGbps, 0.0), no_latency());
    const auto& topo2 = h2.net.topology();
    double end_negative = -1.0;
    h2.net.start_flow(topo2.find("h0"), topo2.find("h1"), ku::Bytes(1e9 / 8.0), {},
                      [&](const kn::Flow& f) { end_negative = f.end_time; },
                      ku::Rate::bps(-5.0));
    h2.sim.run();
    EXPECT_NEAR(end_negative, 1.0, 1e-9);
  }
}

TEST(Network, AggregateRateTracksActiveFlows) {
  Harness h(kn::make_star(3, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  h.net.start_flow(topo.find("h0"), topo.find("h2"), ku::Bytes(1e9), {}, nullptr);
  h.net.start_flow(topo.find("h1"), topo.find("h2"), ku::Bytes(1e9), {}, nullptr);
  h.sim.step();  // activate first flow
  h.sim.step();  // activate second flow
  EXPECT_EQ(h.net.active_flows(), 2u);
  EXPECT_NEAR(h.net.aggregate_rate_bps(), 1e9, 1e3);  // sink downlink saturated
  h.sim.run();
  EXPECT_DOUBLE_EQ(h.net.aggregate_rate_bps(), 0.0);
}

TEST(Network, FlowKindNames) {
  EXPECT_STREQ(kn::flow_kind_name(kn::FlowKind::kHdfsRead), "hdfs_read");
  EXPECT_STREQ(kn::flow_kind_name(kn::FlowKind::kShuffle), "shuffle");
  EXPECT_STREQ(kn::flow_kind_name(kn::FlowKind::kHdfsWrite), "hdfs_write");
  EXPECT_STREQ(kn::flow_kind_name(kn::FlowKind::kControl), "control");
  EXPECT_STREQ(kn::flow_kind_name(kn::FlowKind::kOther), "other");
}

TEST(Network, EcmpOnFatTreeDeliversEverything) {
  Harness h(kn::make_fat_tree(4, 10 * kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const auto hosts = topo.hosts();
  int completions = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    h.net.start_flow(hosts[i], hosts[(i + 5) % hosts.size()], ku::Bytes(1e7), {},
                     [&](const kn::Flow&) { ++completions; });
  }
  h.sim.run();
  EXPECT_EQ(completions, static_cast<int>(hosts.size()));
}

// --------------------------------------------------------- aborts and faults

TEST(NetworkAbort, AbortMidTransferKeepsPartialBytes) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  kn::Flow seen;
  bool completed = false;
  // 1 Gbit at 1 Gb/s would take 1 s; abort halfway.
  const auto id = h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                                   [&](const kn::Flow& f) {
                                     seen = f;
                                     completed = true;
                                   });
  h.sim.schedule_at(0.5, [&] { EXPECT_TRUE(h.net.abort_flow(id)); });
  h.sim.run();
  ASSERT_TRUE(completed);
  EXPECT_TRUE(seen.aborted);
  // Half the payload was on the wire when the connection died.
  EXPECT_NEAR(seen.bytes.value(), 0.5e9 / 8.0, 1.0);
  EXPECT_NEAR(seen.end_time, 0.5, 1e-9);
  EXPECT_EQ(h.net.aborted_flows(), 1u);
  EXPECT_NEAR(h.net.aborted_bytes().value(), 0.5e9 / 8.0, 1.0);
  EXPECT_NEAR(h.net.delivered_bytes().value(), 0.5e9 / 8.0, 1.0);
  EXPECT_EQ(h.net.active_flows(), 0u);
}

TEST(NetworkAbort, AbortUnknownFlowReturnsFalse) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  EXPECT_FALSE(h.net.abort_flow(12345));
}

TEST(NetworkAbort, SurvivorSpeedsUpAfterAbort) {
  Harness h(kn::make_star(3, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  double survivor_end = -1.0;
  // Two flows share the sink downlink at 0.5 Gb/s each. Aborting one at
  // t=0.5 frees the link: survivor has 0.6875 Gbit left at 1 Gb/s.
  const auto victim = h.net.start_flow(topo.find("h0"), topo.find("h2"), ku::Bytes(1e9 / 8.0), {}, nullptr);
  h.net.start_flow(topo.find("h1"), topo.find("h2"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { survivor_end = f.end_time; });
  h.sim.schedule_at(0.5, [&] { h.net.abort_flow(victim); });
  h.sim.run();
  EXPECT_NEAR(survivor_end, 0.5 + 0.75, 1e-6);
}

TEST(NetworkAbort, NodeFailureAbortsEveryTouchingFlow) {
  Harness h(kn::make_star(4, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const auto dead = topo.find("h1");
  int aborted = 0;
  int clean = 0;
  auto count = [&](const kn::Flow& f) { f.aborted ? ++aborted : ++clean; };
  h.net.start_flow(dead, topo.find("h0"), ku::Bytes(1e9 / 8.0), {}, count);          // from dead
  h.net.start_flow(topo.find("h2"), dead, ku::Bytes(1e9 / 8.0), {}, count);          // into dead
  h.net.start_flow(topo.find("h3"), topo.find("h0"), ku::Bytes(1e9 / 8.0), {}, count);  // unrelated
  h.sim.schedule_at(0.25, [&] {
    h.net.set_node_down(dead);
    EXPECT_EQ(h.net.abort_flows_touching(dead), 2u);
  });
  h.sim.run();
  EXPECT_EQ(aborted, 2);
  EXPECT_EQ(clean, 1);
  EXPECT_EQ(h.net.aborted_flows(), 2u);
  EXPECT_FALSE(h.net.node_up(dead));
}

TEST(NetworkAbort, FlowToDownNodeDiesWithZeroBytes) {
  Harness h(kn::make_star(3, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  h.net.set_node_down(topo.find("h1"));
  kn::Flow seen;
  bool fired = false;
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {}, [&](const kn::Flow& f) {
    seen = f;
    fired = true;
  });
  h.sim.run();
  ASSERT_TRUE(fired);  // failed connect reports immediately
  EXPECT_TRUE(seen.aborted);
  EXPECT_DOUBLE_EQ(seen.bytes.value(), 0.0);
  EXPECT_EQ(h.net.aborted_flows(), 1u);
  // The whole intended payload counts as aborted, none as delivered.
  EXPECT_NEAR(h.net.aborted_bytes().value(), 1e9 / 8.0, 1e-6);
  EXPECT_DOUBLE_EQ(h.net.delivered_bytes().value(), 0.0);
  // After recovery new flows complete normally.
  h.net.set_node_up(topo.find("h1"));
  double end = -1.0;
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { end = f.end_time; });
  h.sim.run();
  EXPECT_GT(end, 0.0);
}

TEST(NetworkAbort, LinkCapacityChangeReshapesActiveFlows) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const auto h0 = topo.find("h0");
  const auto access = topo.links_at(h0).front();
  double end = -1.0;
  // 1 Gbit: first half at 1 Gb/s (0.5 s), then the link degrades to
  // 0.1 Gb/s -> remaining 0.5 Gbit takes 5 s more.
  h.net.start_flow(h0, topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { end = f.end_time; });
  h.sim.schedule_at(0.5, [&] { h.net.set_link_capacity(access, ku::Rate::bps(0.1 * kGbps)); });
  h.sim.run();
  EXPECT_NEAR(end, 5.5, 1e-6);
}

TEST(NetworkAbort, CapacityRestoreSpeedsBackUp) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  const auto& topo = h.net.topology();
  const auto access = topo.links_at(topo.find("h0")).front();
  double end = -1.0;
  // Degraded from the start: 0.1 Gb/s for 1 s delivers 0.1 Gbit; restore to
  // 1 Gb/s -> remaining 0.9 Gbit takes 0.9 s.
  h.net.set_link_capacity(access, ku::Rate::bps(0.1 * kGbps));
  h.net.start_flow(topo.find("h0"), topo.find("h1"), ku::Bytes(1e9 / 8.0), {},
                   [&](const kn::Flow& f) { end = f.end_time; });
  h.sim.schedule_at(1.0, [&] { h.net.set_link_capacity(access, ku::Rate::bps(kGbps)); });
  h.sim.run();
  EXPECT_NEAR(end, 1.9, 1e-6);
}

TEST(NetworkAbort, BadNodeAndLinkIdsThrow) {
  Harness h(kn::make_star(2, kGbps, 0.0), no_latency());
  EXPECT_THROW(h.net.set_node_down(kn::NodeId(999)), std::out_of_range);
  EXPECT_THROW(h.net.set_node_up(kn::NodeId(999)), std::out_of_range);
  EXPECT_THROW(h.net.set_link_capacity(999, ku::Rate::bps(1e9)), std::out_of_range);
  // std::logic_error covers both the engine's invalid_argument and the
  // Rate constructor's AuditError under KEDDAH_CHECK builds.
  EXPECT_THROW(h.net.set_link_capacity(0, ku::Rate::bps(-1.0)), std::logic_error);
  EXPECT_TRUE(h.net.node_up(kn::NodeId(999)));  // unknown ids read as "up"
}

// Runtime invariant audits over the shipped example scenarios: byte
// conservation at the network seam (per-class offered == delivered +
// aborted once the run drains), fault-stats consistency, and sim-clock
// monotonicity. The audit entry points are compiled in every build and
// called explicitly here, so this test guards the invariants even when
// KEDDAH_CHECK is off; a KEDDAH_CHECK build additionally runs the same
// audits automatically at every network event.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hadoop/cluster.h"
#include "hadoop/faults.h"
#include "keddah/scenario.h"
#include "net/network.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "workloads/suite.h"

namespace kc = keddah::core;
namespace kh = keddah::hadoop;
namespace kn = keddah::net;
namespace ku = keddah::util;
namespace kw = keddah::workloads;

namespace {

const std::vector<std::string> kScenarios = {"clean.json", "crash.json", "outage.json",
                                             "degraded_link.json"};

std::string scenario_path(const std::string& name) {
  return std::string(KEDDAH_EXAMPLE_SCENARIOS) + "/" + name;
}

}  // namespace

TEST(InvariantAudit, ByteConservationHoldsAcrossScenarios) {
  for (const auto& name : kScenarios) {
    SCOPED_TRACE(name);
    const auto spec = kc::load_scenario(scenario_path(name));
    // run_scenario's steps on a directly owned cluster, so the test can
    // audit the network afterwards (run_scenario hides its cluster).
    kh::HadoopCluster cluster(spec.cluster, spec.seed);
    cluster.schedule_fault_plan(spec.faults);
    kw::run_jobs(cluster, spec.jobs);

    auto& net = cluster.network();
    EXPECT_NO_THROW(net.audit_conservation());
    // The run has drained: nothing in flight, so the ledger closes exactly
    // (up to float accumulation) — per class and in aggregate.
    double offered = 0.0;
    double accounted = 0.0;
    for (std::size_t i = 0; i < kn::kNumFlowKinds; ++i) {
      const auto& totals = cluster.network().class_totals(static_cast<kn::FlowKind>(i));
      const double sum = totals.delivered.value() + totals.aborted.value();
      EXPECT_NEAR(totals.offered.value(), sum, 1e-6 * totals.offered.value() + 1e-3)
          << kn::flow_kind_name(static_cast<kn::FlowKind>(i));
      offered += totals.offered.value();
      accounted += sum;
    }
    EXPECT_GT(offered, 0.0);
    EXPECT_NEAR(net.offered_bytes().value(), offered, 1e-6 * offered + 1e-3);
    EXPECT_NEAR(net.delivered_bytes().value() + net.aborted_bytes().value(), accounted,
                1e-6 * accounted + 1e-3);
  }
}

TEST(InvariantAudit, FaultStatsConsistentAcrossScenarios) {
  for (const auto& name : kScenarios) {
    SCOPED_TRACE(name);
    const auto spec = kc::load_scenario(scenario_path(name));
    const auto outcome = kc::run_scenario(spec);
    EXPECT_EQ(outcome.results.size(), spec.jobs.size());
    EXPECT_NO_THROW(kh::audit_fault_stats(outcome.faults));
    // Faulted scenarios actually injected something; the clean one did not.
    const auto injections = outcome.faults.crashes + outcome.faults.outages +
                            outcome.faults.link_degradations + outcome.faults.slow_nodes;
    EXPECT_EQ(injections, spec.faults.size());
  }
}

TEST(InvariantAudit, FaultStatsAuditRejectsInconsistency) {
  kh::FaultStats stats;
  stats.aborted_bytes = ku::Bytes(100.0);  // bytes without any aborted flow
  EXPECT_THROW(kh::audit_fault_stats(stats), ku::AuditError);
  stats = {};
  stats.map_reruns = 3;  // recovery work without any injected fault
  EXPECT_THROW(kh::audit_fault_stats(stats), ku::AuditError);
  stats = {};
  stats.crashes = 1;
  stats.map_reruns = 3;
  stats.aborted_flows = 1;
  stats.aborted_bytes = ku::Bytes(100.0);
  EXPECT_NO_THROW(kh::audit_fault_stats(stats));
}

TEST(InvariantAudit, SimClockAuditRejectsBackwardsTime) {
  keddah::sim::Simulator sim;
  sim.schedule_at(5.0, [] {});
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  EXPECT_NO_THROW(sim.audit_clock(5.0));
  EXPECT_NO_THROW(sim.audit_clock(6.0));
  EXPECT_THROW(sim.audit_clock(4.0), ku::AuditError);
}

TEST(InvariantAudit, CheckedBuildFlagMatchesCompileDefinition) {
#ifdef KEDDAH_CHECK
  EXPECT_TRUE(ku::kAuditEnabled);
#else
  EXPECT_FALSE(ku::kAuditEnabled);
#endif
}

// Figure 5: shuffle flow count vs maps x reducers.
//
// Paper shape: every reducer fetches from every map, so network shuffle
// flows grow as (1 - 1/N) x M x R (host-local fetches never hit the wire).
#include <iostream>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/sweep.h"
#include "stats/regression.h"
#include "util/rng.h"
#include "workloads/suite.h"

int main() {
  using namespace keddah;
  using bench::kGiB;

  bench::banner("Figure 5", "shuffle flow count vs maps x reducers (Sort)");
  const auto cfg = bench::default_config();

  // Flatten the {input size} x {reducer count} grid into one task list and
  // fan it out; per-cell seeds are derived from the base so the numbers
  // match the serial sweep exactly.
  std::vector<std::pair<std::uint64_t, std::size_t>> cells;
  for (const std::uint64_t gb : {2ull, 4ull, 8ull}) {
    for (const std::size_t reducers : {4u, 8u, 16u, 32u, 64u}) {
      cells.emplace_back(gb, reducers);
    }
  }
  core::SweepRunner runner({.threads = 0});
  const auto outcomes = runner.map(cells.size(), [&](std::size_t i) {
    return workloads::run_single(cfg, workloads::Workload::kSort, cells[i].first * kGiB,
                                 cells[i].second, util::derive_seed(4000, i));
  });

  util::TextTable table({"input_gb", "maps", "reducers", "MxR", "shuffle_flows", "flows/MxR"});
  std::vector<double> xs;
  std::vector<double> ys;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto [gb, reducers] = cells[i];
    const auto& outcome = outcomes[i];
    const auto flows = bench::class_flows(outcome.trace, net::FlowKind::kShuffle);
    const double mxr =
        static_cast<double>(outcome.result.num_maps) * static_cast<double>(reducers);
    xs.push_back(mxr);
    ys.push_back(static_cast<double>(flows));
    table.add_row({std::to_string(gb), std::to_string(outcome.result.num_maps),
                   std::to_string(reducers), util::format("%.0f", mxr), std::to_string(flows),
                   util::format("%.3f", static_cast<double>(flows) / mxr)});
  }
  table.print(std::cout);
  const auto fit = stats::fit_linear_through_origin(xs, ys);
  const double expected = 1.0 - 1.0 / static_cast<double>(cfg.num_workers());
  std::cout << util::format(
      "\nstructural law: flows = %.3f x (M x R)   [expected ~ 1 - 1/N = %.3f]   R^2 = %.4f\n",
      fit.slope, expected, fit.r2);
  return 0;
}

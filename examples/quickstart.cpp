// Quickstart: build a tiny two-network scheduling problem by hand, run
// the distributed (7+eps)-approximation of Theorem 5.3, and inspect the
// result — the 60-second tour of the public API.
//
//   $ ./quickstart
#include <cstdio>

#include "dist/scheduler.hpp"
#include "exact/branch_and_bound.hpp"
#include "model/problem.hpp"
#include "model/solution.hpp"

using namespace treesched;

int main() {
  // A shared vertex set of 8 sites and two tree-shaped networks over it:
  // network 0 is a chain, network 1 is a hub-and-spoke.
  std::vector<TreeNetwork> networks;
  networks.push_back(TreeNetwork::line(8));
  networks.emplace_back(8, std::vector<std::pair<VertexId, VertexId>>{
                               {3, 0}, {3, 1}, {3, 2}, {3, 4},
                               {3, 5}, {3, 6}, {3, 7}});
  Problem problem(8, std::move(networks));

  // Four unit-height demands; demand 3 can only use the chain.
  problem.add_demand(0, 7, 10.0);  // long haul
  problem.add_demand(1, 4, 6.0);
  problem.add_demand(2, 5, 4.0);
  const DemandId restricted = problem.add_demand(5, 6, 3.0);
  problem.set_access(restricted, {0});
  problem.finalize();

  std::printf("problem: %d vertices, %d networks, %d demands, %d instances\n",
              problem.num_vertices(), problem.num_networks(),
              problem.num_demands(), problem.num_instances());

  // Run the distributed scheduler (ideal tree decomposition, Luby MIS).
  DistOptions options;
  options.epsilon = 0.1;
  const DistResult result = solve_tree_unit_distributed(problem, options);

  const auto report = check_feasibility(problem, result.solution);
  std::printf("feasible: %s\n", report.feasible ? "yes" : "no");
  std::printf("profit:   %.1f (guarantee: within %.2fx of OPT)\n",
              result.profit, result.ratio_bound);
  std::printf("certified upper bound on OPT: %.1f\n",
              result.stats.dual_upper_bound);
  std::printf("rounds:   %lld (MIS) + %lld steps\n",
              static_cast<long long>(result.stats.mis_rounds),
              static_cast<long long>(result.stats.steps));

  for (InstanceId i : result.solution.selected) {
    const DemandInstance& inst = problem.instance(i);
    std::printf("  demand %d -> network %d (path %d~%d, profit %.1f)\n",
                inst.demand, inst.network, inst.u, inst.v, inst.profit);
  }

  // Cross-check against the exact optimum (small instance).
  const ExactResult exact = solve_exact(problem);
  std::printf("exact OPT: %.1f (achieved %.0f%%)\n", exact.profit,
              100.0 * result.profit / exact.profit);
  return 0;
}
